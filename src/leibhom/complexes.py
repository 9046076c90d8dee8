"""Boundary data for the eight built-in complex kinds, column by column.

Over a finite-dimensional unital Q-algebra A of dimension d:

  CL       Leibniz chains: CL_0 = Q, CL_n = A^(tensor n)
  CHH      Hochschild chains: CHH_n = A^(tensor n+1)
  CLAMBDA  Connes quotient: CHH_n modulo the signed cyclic rotation
  CE       Lie chains, trivial coefficients: Lambda^n(A)
  CE_ADJ   Lie chains, adjoint coefficients: A tensor Lambda^n(A)
  BAR      bar chains of a group: Q[G^n] (group algebras only)
  L        Q[S_n] tensor A^(tensor n), matrix-transport boundary
  P        Q[U_{n+1}] tensor A^(tensor n+1), U_m = m-cycles in S_m

Every boundary has a column generator, so huge degrees can be streamed
(for d.d = 0 checks or rank streams) without materializing the matrix, and
a stored boundary is assembled from it column by column. Fully built
matrices, and the ranks of their boundaries, live in the registry of a
Session, keyed by algebra fingerprint: one session per run, so nothing
built in one run is seen by another, and a matrix loaded from the disk
cache is the generated one (see cache). Every rank of a session boundary
is boundary_rank's, a complex's included (build_complex), and it ranks a
boundary it does not store by its rows: the rows of a contraction boundary
are built from its terms (_contraction_rows), with no column generated, and
those of a derived one are scattered from its generated columns. Ranked in
ascending degree, a boundary is cleared first (see linalg): the rows of d_n
that the independent columns found in ranking d_{n-1} index lie in the span
of its other rows, because d_{n-1} d_n = 0, and are left out. boundary_rank
clears only where _d2_certified proves that product zero from the terms
(CL, CHH, L and P) and both matrices are the generator's. A derived kind, a
rank read from the memo or the cache, and a matrix set in the session by
other code rank without clearing.

Tensor basis order is lexicographic with the first factor most significant,
matching itertools.product. Wedge bases are increasing index tuples in
lexicographic order. For L and P the permutation index is the major key.

Every boundary has one of two forms. The CL, CHH, L and P boundaries are
signed sums of slot contractions: slots i < j of an m-slot tensor t (index
x) are multiplied or bracketed into the basis element k at slot i, and slot
j is deleted. The lower index is

  (x // d^(m-j)) * d^(m-1-j) + x % d^(m-1-j) + (k - t_i) * d^(m-2-i)

with the digits read off as t_i = x // d^(m-1-i) % d, so no tuple is built
per column or term. The permutation parts of L and P are one edge
contraction, perms.contract_edge, and the appendix row
diagonal_faces_match_transported_boundary checks their slot orders and
signs. The CLAMBDA, CE, CE_ADJ and BAR boundaries are derived:
d_n = proj_{n-1} o d^parent o section_n, the CHH (CLAMBDA, BAR) or CL (CE,
CE_ADJ) boundary between a section and a projection that is a chain map
with proj o section = id. _derived states the sections and projections,
which are also the comparison maps proj_I, proj_lie, proj_adjoint, bar_pi
and bar_iota.

A streamed degree's d.d = 0 (verify_d2_streamed) needs no matrix for the
contraction kinds, and no column of either degree: every composite of two
contractions multiplies at most four input slots, so _d2_certified groups
the composites by the slots they merge and checks each group over the
digits of those slots alone. A degree it cannot prove this way is checked
column by column against the stored degree below it.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import comb, factorial, gcd
from types import SimpleNamespace

from . import cache
from .algebra import Algebra
from .homology import ChainComplex
from .linalg import SparseMatrix, rank_by_columns, rank_by_rows, rank_only
from .perms import (contract_edge, cyclic_class, cyclic_index, face_cyclic,
                    symmetric_group, symmetric_index)

KINDS = ("CL", "CHH", "CLAMBDA", "CE", "CE_ADJ", "BAR", "L", "P")

DEFAULT_MAX_DIM = 100000


class ResourceBoundExceeded(RuntimeError):
    """A requested degree is larger than the configured dimension bound."""

    def __init__(self, kind, degree, size, bound):
        self.kind = kind
        self.degree = degree
        self.size = size
        self.bound = bound
        super().__init__("%s degree %d needs %d basis columns, bound is %d"
                         % (kind, degree, size, bound))


def tuple_index(t, d: int) -> int:
    idx = 0
    for v in t:
        idx = idx * d + v
    return idx


def index_tuple(idx: int, d: int, n: int) -> tuple:
    out = [0] * n
    for pos in range(n - 1, -1, -1):
        idx, out[pos] = divmod(idx, d)
    return tuple(out)


def _acc(out: dict, idx: int, val) -> None:
    cur = out.get(idx, 0) + val
    if cur:
        out[idx] = cur
    else:
        out.pop(idx, None)


# ---------------------------------------------------------------- quotients

@lru_cache(maxsize=None)
def cyclic_quotient(d: int, length: int):
    """Orbit data of the signed rotation on tensors of a given length.

    The rotation r sends (a_0, ..., a_n) to (a_n, a_0, ..., a_{n-1}) and the
    class relation is [r(T)] = eps [T] with eps = (-1)^n, n = length - 1. An
    orbit with minimal period p survives iff eps^p = 1; its representative
    is its lex-least member, a necklace. The FKM algorithm (Fredricksen-
    Kessler-Maiorana) lists the necklaces in lex order with their periods.

    Returns (reps, proj): reps are the tensor indices of the surviving
    necklaces in lex order, and proj(x) is (sign, rep position) for tensor
    index x, or None on a killed orbit. Nothing is held per tensor.
    """
    eps = -1 if length % 2 == 0 else 1
    top = d ** (length - 1)
    reps = []
    t, p = [0] * length, 1  # the prenecklace t repeats its first p digits
    while p:
        if length % p == 0 and (eps == 1 or p % 2 == 0):
            reps.append(tuple_index(t, d))
        p = length
        while p and t[p - 1] == d - 1:
            p -= 1
        if p:
            t[p - 1] += 1
            t = (t[:p] * length)[:length]
    position = {x: pos for pos, x in enumerate(reps)}

    def proj(x: int):
        # the tensor order is the index order. A surviving orbit has
        # eps^p = 1, so every least rotation k gives the one sign eps^k
        least, k, cur = x, 0, x
        for i in range(1, length):
            cur = cur // d + cur % d * top
            if cur < least:
                least, k = cur, i
        pos = position.get(least)
        return None if pos is None else ((1, eps)[k & 1], pos)

    return tuple(reps), proj


@lru_cache(maxsize=None)
def wedge_basis(d: int, n: int):
    """Increasing index tuples of length n over range(d), with index lookup."""
    combos = tuple(itertools.combinations(range(d), n))
    return combos, {c: i for i, c in enumerate(combos)}


def proj_to_wedge(t):
    """Sort a tuple into its wedge representative: (sign, sorted) or None on repeats."""
    arr = list(t)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None
    return sign, tuple(arr)


def bracket_table(A: Algebra):
    """brackets[i][j] = [e_i, e_j] as a tuple of (basis index, coeff) pairs."""
    tab = []
    for i in range(A.dim):
        row = []
        for j in range(A.dim):
            acc = {}
            for k, c in A.products[i][j]:
                _acc(acc, k, c)
            for k, c in A.products[j][i]:
                _acc(acc, k, -c)
            row.append(tuple(sorted(acc.items())))
        tab.append(tuple(row))
    return tuple(tab)


# ------------------------------------------------------------------- sizes

def degree_dim(A: Algebra, kind: str, n: int) -> int:
    d = A.dim
    if n < 0:
        return 0
    if kind == "CL":
        return 1 if n == 0 else d ** n
    if kind == "CHH":
        return d ** (n + 1)
    if kind == "CLAMBDA":
        # signed Burnside count: r^k fixes d^gcd(k, L) tensors
        L, eps = n + 1, -1 if n % 2 else 1
        return sum(eps ** k * d ** gcd(k, L) for k in range(L)) // L
    if kind == "CE":
        return comb(d, n)
    if kind == "CE_ADJ":
        return d * comb(d, n)
    if kind == "BAR":
        if A.group_meta is None:
            raise ValueError("BAR needs a group algebra, got %s" % A.name)
        return 1 if n == 0 else A.group_meta["order"] ** n
    if kind == "L":
        return 1 if n == 0 else factorial(n) * d ** n
    if kind == "P":
        return factorial(n) * d ** (n + 1)
    raise ValueError("unknown complex kind %r" % kind)


def check_bound(A: Algebra, kind: str, n: int, max_dim: int) -> None:
    size = degree_dim(A, kind, n)
    if size > max_dim:
        raise ResourceBoundExceeded(kind, n, size, max_dim)


def check_bounds(A: Algebra, kind: str, cutoff: int, max_dim: int,
                 N: int | None = None) -> None:
    """check_bound at every degree 1..cutoff of kind over A, or over M_N(A)
    if N is given, sized on its dimension N^2 dim A before its product
    table is built (CL and CHH read no more of it). Every degree, since
    the CE and CE_ADJ dimensions are not monotone in n."""
    sized = A if N is None else SimpleNamespace(dim=N * N * A.dim)
    for n in range(1, cutoff + 1):
        check_bound(sized, kind, n, max_dim)


# ---------------------------------------------------------------- boundaries

def _contraction_column_fn(d: int, table, m: int, parts):
    """Column function of a signed sum of slot contractions on m-slot tensors.

    A column index is s * d^m + x: x is the m-slot tensor index and s picks
    parts[s], the terms (i, j, swapped, sign, base) of permutation part s
    (CL and CHH have the one part s = 0). Each term contracts slots i < j by
    the rule in the module docstring, with the product table[t_i][t_j]
    (table[t_j][t_i] when swapped), and adds base, the row offset of the
    term's permutation part. The products are looked up in flat pair tables
    indexed a * d + b, one of them transposed for the swapped terms.
    """
    flat = {False: [table[a][b] for a in range(d) for b in range(d)],
            True: [table[b][a] for a in range(d) for b in range(d)]}
    compiled = [tuple((d ** (m - 1 - i), d ** (m - j), d ** (m - 1 - j),
                       d ** (m - 2 - i), sign, base, flat[swapped])
                      for i, j, swapped, sign, base in terms)
                for terms in parts]
    dm = d ** m

    def col(jidx: int) -> dict:
        s, x = divmod(jidx, dm)
        out = {}
        get = out.get
        # _acc inlined: the hot loop of every streamed d.d check
        for p, q, r, w, sign, base, tab in compiled[s]:
            a = x // p % d
            rest = base + x // q * r + x % r - a * w
            for k, c in tab[a * d + x // r % d]:
                idx = rest + k * w
                val = get(idx, 0) + sign * c
                if val:
                    out[idx] = val
                else:
                    out.pop(idx, None)
        return out

    # the terms themselves, for the d.d certificate (_d2_certified) and the
    # row builder (_contraction_rows)
    col.terms = (table, m, tuple(tuple(terms) for terms in parts))
    return col


def _contraction_rows(terms, rows: int, cols: int) -> list:
    """The rows of the rows x cols matrix whose column function carries
    terms (_contraction_column_fn), as dicts {column: value}, built from
    the terms with no column generated.

    A term and the digits a = t_i, b = t_j fix every other digit's place
    in the column and the row alike, so each entry (k, c) of their product
    is added along one grid of (row offset, column offset) pairs over the
    other m - 2 digits, built once per slot pair (i, j). The column keys
    are taken from one list, so each column index is one int object however
    many rows hold it.
    """
    table, m, parts = terms
    d = len(table)
    dm = d ** m
    ks = [k for row in table for entries in row for k, _ in entries]
    kmin, kmax = (min(ks), max(ks)) if ks else (0, 0)
    keys = list(range(cols))
    by_row = [{} for _ in range(rows)]
    grids = {}  # (i, j) -> (grid, least row offset, greatest row offset)
    for s, part in enumerate(parts):
        for i, j, swapped, sign, base in part:
            if (i, j) not in grids:
                grid = _slot_grid(d, m, i, j)
                ros = [ro for ro, _ in grid]
                grids[(i, j)] = grid, min(ros), max(ros)
            grid, lo, hi = grids[(i, j)]
            w = d ** (m - 2 - i)
            # a negative row would wrap round the list silently
            if base + kmin * w + lo < 0 or base + kmax * w + hi >= rows:
                raise IndexError("a term of the %d-slot contraction leaves "
                                 "the %d rows" % (m, rows))
            p, r = d ** (m - 1 - i), d ** (m - 1 - j)
            for a in range(d):
                for b in range(d):
                    entries = table[b][a] if swapped else table[a][b]
                    if not entries:
                        continue
                    col0 = s * dm + a * p + b * r
                    for k, c in entries:
                        row0, val = base + k * w, sign * c
                        for ro, co in grid:
                            row = by_row[row0 + ro]
                            key = keys[col0 + co]
                            v = row.get(key, 0) + val
                            if v:
                                row[key] = v
                            else:
                                row.pop(key, None)
    return by_row


def _slot_grid(d: int, m: int, i: int, j: int) -> list:
    """(row offset, column offset) of every assignment of the m - 2 digits
    other than i < j: digit l has column weight d^(m-1-l) and, with slot j
    deleted, row weight d^(m-2-l) before j and d^(m-1-l) after it."""
    grid = [(0, 0)]
    for slot in range(m):
        if slot == i or slot == j:
            continue
        rw = d ** (m - 2 - slot) if slot < j else d ** (m - 1 - slot)
        cw = d ** (m - 1 - slot)
        grid = [(ro + t * rw, co + t * cw) for ro, co in grid for t in range(d)]
    return grid


def _scattered_rows(fn, rows: int, cols: int) -> list:
    """The rows of the matrix whose columns fn generates, as dicts
    {column: value}; nothing is kept of a column once it is scattered."""
    by_row = [{} for _ in range(rows)]
    for j in range(cols):
        for i, v in fn(j).items():
            by_row[i][j] = v
    return by_row


def _hochschild_faces(n: int):
    """Faces 0..n of b on n+1 slots; face n wraps slot n to the front."""
    return [(i, i + 1, False, 1 if i % 2 == 0 else -1) for i in range(n)] + \
        [(0, n, True, 1 if n % 2 == 0 else -1)]


def _cl_column_fn(A: Algebra, n: int):
    terms = [(i, j, False, 1 if j % 2 else -1, 0)
             for j in range(1, n) for i in range(j)]
    return _contraction_column_fn(A.dim, bracket_table(A), n, [terms])


def _chh_column_fn(A: Algebra, n: int):
    terms = [face + (0,) for face in _hochschild_faces(n)]
    return _contraction_column_fn(A.dim, A.products, n + 1, [terms])


@lru_cache(maxsize=None)
def _l_transport_terms(sigma):
    """Permutation bookkeeping of the L boundary, independent of the tensor part.

    One term (i, j, swapped, sign, new_perm) per edge r -> g = sigma(r) with
    g != r, the edges g > r first: slots i = min(r, g) < j = max(r, g) are
    multiplied at slot i in the order of the edge (swapped when g < r), slot j
    is deleted, and new_perm = contract_edge(sigma, r).
    """
    return tuple((min(r, g), max(r, g), g < r,
                  (-1) ** max(r, g) * (-1 if g < r else 1), contract_edge(sigma, r))
                 for swapped in (False, True)
                 for r, g in enumerate(sigma, 1) if g != r and (g < r) == swapped)


def _l_column_fn(A: Algebra, n: int):
    pidx_lo = symmetric_index(n - 1)
    dlo = A.dim ** (n - 1)
    parts = [[(i1 - 1, j1 - 1, swapped, sign, pidx_lo[new_perm] * dlo)
              for i1, j1, swapped, sign, new_perm in _l_transport_terms(sigma)]
             for sigma in symmetric_group(n)]
    return _contraction_column_fn(A.dim, A.products, n, parts)


def _p_column_fn(A: Algebra, n: int):
    cidx_lo = cyclic_index(n)
    dlo = A.dim ** n
    faces = _hochschild_faces(n)
    parts = [[face + (cidx_lo[face_cyclic(sigma, f)] * dlo,)
              for f, face in enumerate(faces)]
             for sigma in cyclic_class(n + 1)]
    return _contraction_column_fn(A.dim, A.products, n + 1, parts)


def _derived(A: Algebra, kind: str, n: int):
    """(parent kind, parent degree, section, proj) of a derived kind at degree n.

    section(j) is the parent index of basis vector j, and proj(x) is
    (sign, index) or None for parent index x: the quotient (or, for BAR,
    the retraction) of the parent's degree onto degree n, with
    proj(section(j)) == (1, j).

      CLAMBDA_n  CHH_n      lex-least orbit member   signed cyclic class
      CE_n       CL_n       increasing wedge tuple   sorted with sign
      CE_ADJ_n   CL_{n+1}   a_0, then the wedge      a_0 (x) the rest sorted
      BAR_n      CHH_n      prepend the inverse      tuples of product e,
                            of the product           slot 0 dropped

    BAR's products are a table over the g^n basis vectors, within the
    bound. CLAMBDA, CE and CE_ADJ project by digits, with no table over the
    parent's tensors: their bound gates their own dimension, not d^(n+1) or
    d^n. CLAMBDA's section reads the surviving necklaces (cyclic_quotient).
    """
    d = A.dim
    if kind == "CLAMBDA":
        reps, proj = cyclic_quotient(d, n + 1)
        return "CHH", n, reps.__getitem__, proj
    if kind == "CE":
        combos, cidx = wedge_basis(d, n)
        return ("CL", n, lambda j: tuple_index(combos[j], d),
                lambda x: _wedged(cidx, index_tuple(x, d, n), 0))
    if kind == "CE_ADJ":
        combos, cidx = wedge_basis(d, n)
        w, dn = len(combos), d ** n
        return ("CL", n + 1,
                lambda j: j // w * dn + tuple_index(combos[j % w], d),
                lambda x: _wedged(cidx, index_tuple(x % dn, d, n), x // dn * w))
    if kind == "BAR":
        if A.group_meta is None:
            raise ValueError("BAR needs a group algebra, got %s" % A.name)
        cay = A.group_meta["cayley"]
        inv = A.group_meta["inverse"]
        gn = d ** n
        # prods[j]: the product of the n group elements of basis vector j
        prods = [A.group_meta["identity"]]
        for _ in range(n):
            prods = [cay[p][g] for p in prods for g in range(d)]
        return ("CHH", n, lambda j: inv[prods[j]] * gn + j,
                lambda x: (1, x % gn) if x // gn == inv[prods[x % gn]] else None)
    raise ValueError("%r is not a derived complex kind" % kind)


def _wedged(cidx, t, base):
    pw = proj_to_wedge(t)
    return None if pw is None else (pw[0], base + cidx[pw[1]])


def _derived_column_fn(kind: str, A: Algebra, n: int):
    """d_n of a derived kind: proj_{n-1} o (parent boundary) o section_n."""
    parent, m, section, _ = _derived(A, kind, n)
    proj = _derived(A, kind, n - 1)[3]
    up = _COLUMN_BUILDERS[parent](A, m)

    def col(jidx: int) -> dict:
        return _project(proj, up(section(jidx)))

    return col


def _project(proj, vec: dict) -> dict:
    """vec sent through a projection proj in the form _derived gives: proj(x)
    is (sign, index) or None, and images that meet are summed."""
    out = {}
    for x, v in vec.items():
        image = proj(x)
        if image is not None:
            _acc(out, image[1], image[0] * v)
    return out


_COLUMN_BUILDERS = {
    "CL": _cl_column_fn,
    "CHH": _chh_column_fn,
    "L": _l_column_fn,
    "P": _p_column_fn,
}
_COLUMN_BUILDERS.update({kind: partial(_derived_column_fn, kind)
                         for kind in ("CLAMBDA", "CE", "CE_ADJ", "BAR")})


def boundary_column_fn(A: Algebra, kind: str, n: int):
    """Column generator for d_n; callers stream columns without storing d_n."""
    if kind not in _COLUMN_BUILDERS:
        raise ValueError("unknown complex kind %r" % kind)
    if n < 1:
        raise ValueError("boundary degree must be >= 1")
    return _COLUMN_BUILDERS[kind](A, n)


# ------------------------------------------------------------------ session

class Session:
    """One run's boundaries, their ranks, and its disk cache with its counts.

    boundaries maps (fingerprint, kind, n) to d_n, and ranks maps it to
    rank d_n, boundary_rank's memo, so each is ranked once however many
    complexes read it. max_dim bounds every degree the session builds;
    cache_dir, if set, is the boundary disk cache, and cache_counts counts
    its hits, misses, writes and rejects.

    A boundary is assembled from its column generator or loaded from a cache
    file bound to the generator's source (see cache), and a loaded one puts
    the rank its file holds, if any, into ranks. generated maps the key of
    each boundary boundary_matrix put into boundaries to that matrix, so a
    matrix set in boundaries by other code is known not to be the
    generator's. independent maps (fingerprint, kind, n) to the independent
    columns that ranking the generator's d_n found, which boundary_rank
    clears d_{n+1} with; they live in memory only, never in the cache.

    unsaved maps each boundary whose file save() may write to whether that
    file loaded (without a rank). save(), called once at the end of a run,
    writes each boundary assembled under the cache, with its rank if known,
    and each loaded one ranked since; a warm run that ranks nothing new
    writes nothing.
    """

    def __init__(self, max_dim=DEFAULT_MAX_DIM, cache_dir=None):
        if max_dim < 1:
            raise ValueError("max_dim must be at least 1, got %d" % max_dim)
        self.max_dim = max_dim
        self.cache_dir = cache_dir
        self.boundaries = {}
        self.ranks = {}
        self.generated = {}
        self.independent = {}
        self.unsaved = {}
        self.cache_counts = {"hits": 0, "misses": 0, "writes": 0, "rejects": 0}

    def save(self) -> None:
        """Write the cache files this session owes, once."""
        for key, loaded in sorted(self.unsaved.items()):
            rank = self.ranks.get(key)
            if rank is not None or not loaded:
                cache.save_boundary(self.cache_dir, *key,
                                    self.boundaries[key], rank,
                                    self.cache_counts)
        self.unsaved.clear()


def boundary_matrix(A: Algebra, kind: str, n: int, session=None,
                    cached=True) -> SparseMatrix:
    """d_n from the session, else from its disk cache if cached, else built.

    A boundary loaded from the cache takes the rank its file holds.
    """
    if session is None:
        session = Session()
    key = (A.fingerprint(), kind, n)
    hit = session.boundaries.get(key)
    if hit is not None:
        return hit
    check_bound(A, kind, n, session.max_dim)
    rows = degree_dim(A, kind, n - 1)
    cols = degree_dim(A, kind, n)
    mat = None
    if cached and session.cache_dir is not None:
        mat, rank = cache.load_boundary(session.cache_dir, key[0], kind, n,
                                        rows, cols, session.cache_counts
                                        ) or (None, None)
        if rank is None:
            session.unsaved[key] = mat is not None
        else:
            session.ranks.setdefault(key, rank)
    if mat is None:
        mat = SparseMatrix.from_columns(rows, cols,
                                        boundary_column_fn(A, kind, n))
    session.boundaries[key] = session.generated[key] = mat
    return mat


def build_complex(A: Algebra, kind: str, cutoff: int, session=None,
                  cached=True) -> ChainComplex:
    """d_1..d_cutoff as a ChainComplex that ranks them by boundary_rank."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if session is None:
        session = Session()
    boundaries = [None] + [boundary_matrix(A, kind, n, session, cached)
                           for n in range(1, cutoff + 1)]
    dims = [degree_dim(A, kind, 0)] + [d.cols for d in boundaries[1:]]
    return ChainComplex(kind, dims, boundaries,
                        partial(boundary_rank, A, kind, session=session))


def boundary_rank(A: Algebra, kind: str, n: int, session: Session) -> int:
    """rank d_n, memoized in the session's ranks.

    d_n is stored when the session holds it, for P, and for every kind when
    the session has a disk cache, which then saves it; a loaded d_n may
    bring its rank. d_n is ranked by its rows, but a stored P by its
    columns (rank_by_columns): by rows, a large P degree ranks several
    times slower. Any other stored d_n is transposed into rows by
    rank_only. One not stored is never built: the rows of a contraction
    boundary (CL, CHH, L) are built from its terms, those of a derived one
    are scattered from its generated columns, and rank_by_rows ranks them.

    Either way d_n is cleared first (see linalg): the rows that the
    independent columns found in ranking d_{n-1} index are left out. That
    takes d_{n-1} ranked in this session, and both matrices the generator's
    (rows built here, or a stored matrix boundary_matrix assembled or
    loaded) with d_{n-1} d_n = 0 proven from their terms by _d2_certified,
    which holds for CL, CHH, L and P. The derived kinds, a rank read from
    the memo or the cache, and a matrix set in the session's boundaries by
    other code clear nothing and give no clearing. A column function is
    built only to clear or to rank by rows.
    """
    fingerprint = A.fingerprint()
    key = (fingerprint, kind, n)
    mat = session.boundaries.get(key)
    if mat is None and key not in session.ranks and (
            kind == "P" or session.cache_dir is not None):
        mat = boundary_matrix(A, kind, n, session)  # may load the rank
    if key in session.ranks:
        return session.ranks[key]
    if mat is None:
        check_bound(A, kind, n, session.max_dim)
    generated = mat is None or session.generated.get(key) is mat
    skip = session.independent.get((fingerprint, kind, n - 1))
    if not (generated and skip and _d2_certified(
            boundary_column_fn(A, kind, n),
            boundary_column_fn(A, kind, n - 1))):
        skip = frozenset()
    if mat is not None:
        rows, cols = mat.rows, mat.cols
        rank_stored = rank_by_columns if kind == "P" else rank_only
        rank, independent = rank_stored(mat, skip)
    else:
        rows = degree_dim(A, kind, n - 1)
        cols = degree_dim(A, kind, n)
        fn = boundary_column_fn(A, kind, n)
        if hasattr(fn, "terms"):
            by_row = _contraction_rows(fn.terms, rows, cols)
        else:
            by_row = _scattered_rows(fn, rows, cols)
        rank, independent = rank_by_rows(by_row, cols, skip)
    assert 0 <= rank <= min(rows, cols), (kind, n, rank)
    session.ranks[key] = rank
    if generated:
        # more than rank columns are dependent: clearing by them is unsound
        assert len(independent) == rank, (kind, n, rank, len(independent))
        session.independent[key] = independent
    return rank


def verify_d2_streamed(A: Algebra, kind: str, n: int, session=None):
    """Check d_{n-1} o d_n = 0 without storing d_n; None or (degree, column).

    For CL, CHH, L and P, _d2_certified proves d.d = 0 from the terms of d_n
    and d_{n-1}, without a matrix or a generated column. Otherwise, or when
    the proof does not go through, d_{n-1} is stored (it is subject to the
    session's max_dim), the columns of d_n are generated, checked and
    dropped, and the first column that d_{n-1} does not send to zero
    (SparseMatrix.first_nonzero_image, which reads a loaded d_{n-1} in
    place) is the witness.
    """
    if n < 2:
        return None
    fn = boundary_column_fn(A, kind, n)
    if _d2_certified(fn, boundary_column_fn(A, kind, n - 1)):
        return None
    j = boundary_matrix(A, kind, n - 1, session).first_nonzero_image(
        map(dict.items, map(fn, range(degree_dim(A, kind, n)))))
    return None if j is None else (n, j)


def _d2_certified(up, down) -> bool:
    """True if down o up = 0 follows from the terms of up and down.

    up and down are contraction column functions of d_n and d_{n-1} over one
    table. Each term of a part of up is composed with the terms of the part
    of down it lands in: a composite is its output part and a product tree
    over the input slots in each merged output slot (two trees of two slots,
    or one of three). The composites are grouped by output part and the input
    slots merged into each output slot. A column's d.d is the sum of its
    group sums, and a group's sum is its untouched digits tensor a sum of
    trees that reads only its (at most four) merged digits: identical trees
    cancel, and what is left is checked once over every assignment of those
    digits. A group is checked with its merged slots renamed 0..k-1 in order
    (_group_vanishes is memoized on that form), so the groups that differ
    only in where their slots sit, across parts, degrees and calls, are
    checked once per table. False proves nothing; the caller then checks
    column by column, and so it is for a column function without terms.
    """
    if not hasattr(up, "terms"):
        return False
    table, m, parts = up.terms
    if getattr(down, "terms", ())[:2] != (table, m - 1):
        return False
    parts_lo, dlo = down.terms[2], len(table) ** (m - 1)
    composites = {}  # the two contractions -> (trees, merged input slots)
    for part in parts:
        groups = {}
        for i, j, swapped, sign, base in part:
            for i2, j2, swapped2, sign2, base2 in parts_lo[base // dlo]:
                pair = (i, j, swapped, i2, j2, swapped2)
                if pair not in composites:
                    composites[pair] = _composite(m, *pair)
                trees, blocks = composites[pair]
                group = groups.setdefault((base2, blocks), {})
                group[trees] = group.get(trees, 0) + sign * sign2
        for (_, blocks), group in groups.items():
            name = {s: i for i, s in enumerate(
                sorted(s for block in blocks for s in block))}
            group = frozenset((tuple(_renamed(tree, name) for tree in trees), c)
                              for trees, c in group.items() if c)
            if group and not _group_vanishes(table, len(name), group):
                return False
    return True


def _composite(m: int, i, j, swapped, i2, j2, swapped2):
    """The product trees of two contractions of m slots, in output order,
    with the input slots of each tree."""
    slots = _contract(_contract(range(m), i, j, swapped), i2, j2, swapped2)
    trees = tuple(t for t in slots if type(t) is tuple)
    return trees, tuple(tuple(sorted(_leaves(t))) for t in trees)


def _contract(slots, i: int, j: int, swapped: bool) -> list:
    """Slots i < j contracted into the tree (i, j) at i, or (j, i) when
    swapped, and slot j deleted; a slot is an input slot or a tree."""
    out = list(slots)
    out[i] = (out[j], out[i]) if swapped else (out[i], out[j])
    del out[j]
    return out


def _renamed(tree, name):
    """tree with each input slot s read as name[s]."""
    if type(tree) is int:
        return name[tree]
    return _renamed(tree[0], name), _renamed(tree[1], name)


def _leaves(tree) -> tuple:
    return (tree,) if type(tree) is int else _leaves(tree[0]) + _leaves(tree[1])


@lru_cache(maxsize=None)
def _group_vanishes(table, k: int, group) -> bool:
    """Whether sum c * (tensor of the trees' products) over the group is zero
    for every assignment of basis elements to its merged input slots, which
    are 0..k-1."""
    for digits in itertools.product(range(len(table)), repeat=k):
        total = {}
        for trees, c in group:
            terms = {(): c}
            for tree in trees:
                value = _tree_value(table, tree, digits)
                terms = {key + (b,): u * v for key, u in terms.items()
                         for b, v in value.items()}
            for key, u in terms.items():
                _acc(total, key, u)
        if total:
            return False
    return True


def _tree_value(table, tree, digits) -> dict:
    """The product a tree names, its input slots read as the basis elements
    digits[slot]."""
    if type(tree) is int:
        return {digits[tree]: 1}
    out = {}
    for a, u in _tree_value(table, tree[0], digits).items():
        for b, v in _tree_value(table, tree[1], digits).items():
            for k, c in table[a][b]:
                _acc(out, k, u * v * c)
    return out


# -------------------------------------------------------------------- labels

def _tensor_label(names, t):
    return "|".join(names[i] for i in t) if t else "1"


def basis_labels(A: Algebra, kind: str, n: int):
    names = A.basis_names
    d = A.dim
    if kind == "CL":
        if n == 0:
            return ["1"]
        return [_tensor_label(names, t) for t in itertools.product(range(d), repeat=n)]
    if kind == "CHH":
        return [_tensor_label(names, t) for t in itertools.product(range(d), repeat=n + 1)]
    if kind == "CLAMBDA":
        return ["[%s]" % _tensor_label(names, index_tuple(x, d, n + 1))
                for x in cyclic_quotient(d, n + 1)[0]]
    if kind == "CE":
        return ["^".join(names[i] for i in c) if c else "1"
                for c in wedge_basis(d, n)[0]]
    if kind == "CE_ADJ":
        combos = wedge_basis(d, n)[0]
        return ["%s;%s" % (names[a0], "^".join(names[i] for i in c) if c else "1")
                for a0 in range(d) for c in combos]
    if kind == "BAR":
        gnames = A.group_meta["names"]
        order = A.group_meta["order"]
        if n == 0:
            return ["[]"]
        return ["[%s]" % "|".join(gnames[i] for i in t)
                for t in itertools.product(range(order), repeat=n)]
    if kind == "L":
        if n == 0:
            return ["1"]
        return ["%s;%s" % (str(p), _tensor_label(names, t))
                for p in symmetric_group(n)
                for t in itertools.product(range(d), repeat=n)]
    if kind == "P":
        return ["%s;%s" % (str(p), _tensor_label(names, t))
                for p in cyclic_class(n + 1)
                for t in itertools.product(range(d), repeat=n + 1)]
    raise ValueError("unknown complex kind %r" % kind)


# ----------------------------------------------------------- Kahler module

class KahlerModule:
    """Differential forms of a presented commutative algebra A = Q[t]/(r).

    Omega^0 = A, and Omega^1 = A dg / (r'(g) A dg) is the cokernel of
    multiplication by r'(g), computed as H_0 of the two-term complex
    A --r'(g)--> A; its representatives are the basis directions rep_indices.
    Omega^n = 0 for n >= 2 because A is cyclic as a module over itself.
    diff_coords gives d(e_i) in Omega^1.
    """

    def __init__(self, A: Algebra):
        if not A.commutative:
            raise ValueError("Kahler module needs a commutative algebra")
        if A.presentation is None:
            raise ValueError("algebra %s carries no presentation" % A.name)
        self.algebra = A
        pres = A.presentation
        d = A.dim
        from .algebra import multiply_coords
        from .linalg import Echelon

        gen = {i: c for i, c in enumerate(pres.generator) if c}
        powers = []
        cur = {i: c for i, c in enumerate(A.unit) if c}
        for _ in range(d):
            powers.append(dict(cur))
            cur = multiply_coords(A, cur, gen)
        pow_solver = Echelon(track=True)
        for p in powers:
            if pow_solver.insert(p) is None:
                raise ValueError("presentation powers do not form a basis")
        self.generator_coords = dict(gen)

        # r'(g), evaluated through the power basis
        deriv = pres.derivative()
        rprime = {}
        for k, c in enumerate(deriv):
            if c:
                for i, v in powers[k].items():
                    _acc(rprime, i, c * v)
        mult = SparseMatrix(d, d, [multiply_coords(A, rprime, {i: 1})
                                   for i in range(d)])
        self._omega1 = ChainComplex("KAHLER", [d, d], [None, mult]).homology(0)
        # H_0 representatives are standard basis vectors {i: 1}
        self.rep_indices = [next(iter(rep))
                            for rep in self._omega1.representatives]
        self.dim1 = len(self.rep_indices)

        # d(e_i) = p_i'(g) dg where e_i = p_i(g)
        self._diffs = []
        for i in range(d):
            coeffs = pow_solver.express({i: 1})
            val = {}
            for k, c in coeffs.items():
                if k >= 1 and c:
                    for bi, bv in powers[k - 1].items():
                        _acc(val, bi, k * c * bv)
            self._diffs.append(self.project1(val))

    def omega_dim(self, n: int) -> int:
        if n == 0:
            return self.algebra.dim
        if n == 1:
            return self.dim1
        return 0

    def project1(self, coords: dict) -> dict:
        """Class of (coords) dg in Omega^1, in the rep_indices coordinate system."""
        return {pos: v for pos, v in enumerate(self._omega1.class_coords(coords))
                if v}

    def diff_coords(self, i: int) -> dict:
        """d(e_i) as an Omega^1 coordinate vector."""
        return dict(self._diffs[i])
