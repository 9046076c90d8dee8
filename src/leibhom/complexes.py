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

All boundaries are generated one column at a time so huge degrees can be
streamed (for d.d = 0 checks or rank streams) without materializing the
matrix. Fully built matrices, and the ranks of their boundaries, live in a
process registry keyed by algebra fingerprint; clear_registry() empties it
for determinism experiments.

Tensor basis order is lexicographic with the first factor most significant,
matching itertools.product. Wedge bases are increasing index tuples in
lexicographic order. For L and P the permutation index is the major key.

The CL, CHH, L and P boundaries are signed sums of slot contractions: slots
i < j of an m-slot tensor t (index x) are multiplied or bracketed into the
basis element k at slot i, and slot j is deleted. The lower index is

  (x // d^(m-j)) * d^(m-1-j) + x % d^(m-1-j) + (k - t_i) * d^(m-2-i)

with the digits read off as t_i = x // d^(m-1-i) % d, so no tuple is built
per column or term.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

from .algebra import Algebra
from .homology import ChainComplex
from .linalg import SparseMatrix, ZeroTest
from .perms import cyclic_class, cyclic_index, face_cyclic, symmetric_group, symmetric_index

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
    """Orbit data of the signed rotation on index tuples of a given length.

    The rotation r sends (a_0, ..., a_n) to (a_n, a_0, ..., a_{n-1}) and the
    class relation is [r(T)] = (-1)^n [T] with n = length - 1. An orbit with
    minimal period p survives iff (-1)^(n p) = 1; its representative is the
    first member met in lexicographic enumeration (the lex-least one).

    Returns (reps, rep_index, proj) where proj maps every tuple to
    (sign, rep position) or to None on a killed orbit.
    """
    n = length - 1
    eps = -1 if n % 2 else 1
    reps = []
    rep_index = {}
    proj = {}
    for t in itertools.product(range(d), repeat=length):
        if t in proj:
            continue
        orbit = [t]
        cur = (t[-1],) + t[:-1]
        while cur != t:
            orbit.append(cur)
            cur = (cur[-1],) + cur[:-1]
        period = len(orbit)
        alive = eps == 1 or period % 2 == 0
        if alive:
            pos = len(reps)
            reps.append(t)
            rep_index[t] = pos
            s = 1
            for member in orbit:
                proj[member] = (s, pos)
                s *= eps
        else:
            for member in orbit:
                proj[member] = None
    return tuple(reps), rep_index, proj


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


_BRACKET_TABLES: dict = {}


def bracket_table(A: Algebra):
    """brackets[i][j] = [e_i, e_j] as a tuple of (basis index, coeff) pairs."""
    key = A.fingerprint()
    tab = _BRACKET_TABLES.get(key)
    if tab is None:
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
        tab = tuple(tab)
        _BRACKET_TABLES[key] = tab
    return tab


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
        return len(cyclic_quotient(d, n + 1)[0])
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


def _work_estimate(A: Algebra, kind: str, n: int) -> int:
    # CLAMBDA sizes are computed through a full ambient orbit sweep, so the
    # bound must gate on the ambient count, not the quotient dimension.
    if kind == "CLAMBDA":
        return A.dim ** (n + 1)
    return degree_dim(A, kind, n)


def check_bound(A: Algebra, kind: str, n: int, max_dim=DEFAULT_MAX_DIM) -> None:
    if max_dim is None:
        return
    size = _work_estimate(A, kind, n)
    if size > max_dim:
        raise ResourceBoundExceeded(kind, n, size, max_dim)


# ---------------------------------------------------------------- boundaries

def _zero_column(_j: int) -> dict:
    return {}


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

    return col


def _hochschild_faces(n: int):
    """Faces 0..n of b on n+1 slots; face n wraps slot n to the front."""
    return [(i, i + 1, False, 1 if i % 2 == 0 else -1) for i in range(n)] + \
        [(0, n, True, 1 if n % 2 == 0 else -1)]


def _cl_column_fn(A: Algebra, n: int):
    if n == 1:
        return _zero_column
    terms = [(i, j, False, 1 if j % 2 else -1, 0)
             for j in range(1, n) for i in range(j)]
    return _contraction_column_fn(A.dim, bracket_table(A), n, [terms])


def _chh_column_fn(A: Algebra, n: int):
    terms = [face + (0,) for face in _hochschild_faces(n)]
    return _contraction_column_fn(A.dim, A.products, n + 1, [terms])


def _clambda_column_fn(A: Algebra, n: int):
    d = A.dim
    reps_hi = cyclic_quotient(d, n + 1)[0]
    proj_lo = cyclic_quotient(d, n)[2]
    prod = A.products

    def col(jidx: int) -> dict:
        t = reps_hi[jidx]
        out = {}
        for i in range(n):
            sign = 1 if i % 2 == 0 else -1
            for k, coeff in prod[t[i]][t[i + 1]]:
                image = proj_lo[t[:i] + (k,) + t[i + 2:]]
                if image is not None:
                    _acc(out, image[1], sign * coeff * image[0])
        sign = 1 if n % 2 == 0 else -1
        for k, coeff in prod[t[n]][t[0]]:
            image = proj_lo[(k,) + t[1:n]]
            if image is not None:
                _acc(out, image[1], sign * coeff * image[0])
        return out

    return col


def _ce_column_fn(A: Algebra, n: int):
    if n == 1:
        return _zero_column
    combos = wedge_basis(A.dim, n)[0]
    cidx_lo = wedge_basis(A.dim, n - 1)[1]
    br = bracket_table(A)

    def col(jidx: int) -> dict:
        c = combos[jidx]
        out = {}
        for j1 in range(2, n + 1):
            sign = 1 if j1 % 2 == 0 else -1
            for i1 in range(1, j1):
                for k, coeff in br[c[i1 - 1]][c[j1 - 1]]:
                    pw = proj_to_wedge(c[:i1 - 1] + (k,) + c[i1:j1 - 1] + c[j1:])
                    if pw is not None:
                        _acc(out, cidx_lo[pw[1]], sign * coeff * pw[0])
        return out

    return col


def _ce_adj_column_fn(A: Algebra, n: int):
    d = A.dim
    combos = wedge_basis(d, n)[0]
    cidx_lo = wedge_basis(d, n - 1)[1]
    wlo = comb(d, n - 1)
    br = bracket_table(A)

    def col(jidx: int) -> dict:
        a0, cj = divmod(jidx, len(combos))
        c = combos[cj]
        out = {}
        for j1 in range(2, n + 1):
            sign = -1 if j1 % 2 == 0 else 1
            for i1 in range(1, j1):
                for k, coeff in br[c[i1 - 1]][c[j1 - 1]]:
                    pw = proj_to_wedge(c[:i1 - 1] + (k,) + c[i1:j1 - 1] + c[j1:])
                    if pw is not None:
                        _acc(out, a0 * wlo + cidx_lo[pw[1]], sign * coeff * pw[0])
        for j1 in range(1, n + 1):
            sign = -1 if j1 % 2 == 0 else 1
            rest = cidx_lo[c[:j1 - 1] + c[j1:]]
            for k, coeff in br[a0][c[j1 - 1]]:
                _acc(out, k * wlo + rest, sign * coeff)
        return out

    return col


def _bar_column_fn(A: Algebra, n: int):
    meta = A.group_meta
    if meta is None:
        raise ValueError("BAR needs a group algebra, got %s" % A.name)
    g = meta["order"]
    cay = meta["cayley"]

    def col(jidx: int) -> dict:
        t = index_tuple(jidx, g, n)
        out = {}
        _acc(out, tuple_index(t[1:], g), 1)
        for i in range(1, n):
            sign = -1 if i % 2 else 1
            nt = t[:i - 1] + (cay[t[i - 1]][t[i]],) + t[i + 1:]
            _acc(out, tuple_index(nt, g), sign)
        _acc(out, tuple_index(t[:-1], g), -1 if n % 2 else 1)
        return out

    return col


@lru_cache(maxsize=None)
def _l_transport_terms(sigma):
    """Permutation bookkeeping of the L boundary, independent of the tensor part.

    Each term is (i, j, swapped, sign, new_perm) with i < j: the tensor gets
    the product of slots i and j (in that order, or reversed when swapped) at
    slot i, slot j is deleted, and the contracted permutation comes from
    relabeling rows by the slot they now occupy.
    """
    n = len(sigma)
    terms = []
    for i1 in range(1, n + 1):
        j1 = sigma[i1 - 1]
        if j1 > i1:
            # sigma(i) = j: row i absorbs the product and keeps slot i
            rho = {p: (p if p < j1 else p - 1) for p in range(1, n + 1) if p != j1}
            sp = {p: sigma[p - 1] for p in rho if p != i1}
            sp[i1] = sigma[j1 - 1]
            inv = [s if s < j1 else s + 1 for s in range(1, n)]
            new_perm = tuple(rho[sp[r]] for r in inv)
            terms.append((i1, j1, False, 1 if j1 % 2 == 0 else -1, new_perm))
    for j1 in range(1, n + 1):
        i1 = sigma[j1 - 1]
        if i1 < j1:
            # sigma(j) = i: row j takes over slot i with the reversed product,
            # so the row-to-slot relabeling is not order-preserving
            rho = {}
            for p in range(1, n + 1):
                if p == i1:
                    continue
                rho[p] = i1 if p == j1 else (p if p < j1 else p - 1)
            sp = {p: sigma[p - 1] for p in rho if p != j1}
            sp[j1] = sigma[i1 - 1]
            inv = []
            for s in range(1, n):
                if s == i1:
                    inv.append(j1)
                else:
                    inv.append(s if s < j1 else s + 1)
            new_perm = tuple(rho[sp[r]] for r in inv)
            terms.append((i1, j1, True, -1 if j1 % 2 == 0 else 1, new_perm))
    return tuple(terms)


def _l_column_fn(A: Algebra, n: int):
    if n == 1:
        return _zero_column
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


_COLUMN_BUILDERS = {
    "CL": _cl_column_fn,
    "CHH": _chh_column_fn,
    "CLAMBDA": _clambda_column_fn,
    "CE": _ce_column_fn,
    "CE_ADJ": _ce_adj_column_fn,
    "BAR": _bar_column_fn,
    "L": _l_column_fn,
    "P": _p_column_fn,
}


def boundary_column_fn(A: Algebra, kind: str, n: int):
    """Column generator for d_n; callers stream columns without storing d_n."""
    if kind not in _COLUMN_BUILDERS:
        raise ValueError("unknown complex kind %r" % kind)
    if n < 1:
        raise ValueError("boundary degree must be >= 1")
    return _COLUMN_BUILDERS[kind](A, n)


# ------------------------------------------------------------------ registry

# (fingerprint, kind, n) -> d_n, and (fingerprint, kind) -> {n: rank d_n}: the
# rank memo lives with the boundaries it describes and is cleared with them
_REGISTRY: dict = {}


def clear_registry() -> None:
    _REGISTRY.clear()
    _BRACKET_TABLES.clear()


def boundary_matrix(A: Algebra, kind: str, n: int, cache_dir=None,
                    max_dim=DEFAULT_MAX_DIM) -> SparseMatrix:
    key = (A.fingerprint(), kind, n)
    hit = _REGISTRY.get(key)
    if hit is not None:
        return hit
    check_bound(A, kind, n, max_dim)
    rows = degree_dim(A, kind, n - 1)
    cols = degree_dim(A, kind, n)
    mat = None
    if cache_dir is not None:
        from . import cache
        mat = cache.load_boundary(cache_dir, key[0], kind, n, rows, cols)
    if mat is None:
        mat = SparseMatrix.from_columns(rows, cols,
                                        boundary_column_fn(A, kind, n))
        if cache_dir is not None:
            from . import cache
            cache.save_boundary(cache_dir, key[0], kind, n, mat)
    _REGISTRY[key] = mat
    return mat


def build_complex(A: Algebra, kind: str, cutoff: int, max_dim=DEFAULT_MAX_DIM,
                  cache_dir=None) -> ChainComplex:
    """Boundaries d_1..d_cutoff as a ChainComplex."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    dims = [degree_dim(A, kind, 0)]
    boundaries = [None]
    for n in range(1, cutoff + 1):
        check_bound(A, kind, n, max_dim)
        dims.append(degree_dim(A, kind, n))
        boundaries.append(boundary_matrix(A, kind, n, cache_dir, max_dim))
    C = ChainComplex(kind, dims, boundaries)
    C._ranks = _REGISTRY.setdefault((A.fingerprint(), kind), {})
    return C


def verify_d2_streamed(A: Algebra, kind: str, n: int, cache_dir=None,
                       max_dim=DEFAULT_MAX_DIM):
    """Check d_{n-1} o d_n = 0 without storing d_n; None or (degree, column).

    Only d_{n-1} is materialized (it is subject to max_dim); the columns of
    d_n are generated, checked, and dropped.
    """
    if n < 2:
        return None
    lower = boundary_matrix(A, kind, n - 1, cache_dir, max_dim)
    vanishes = ZeroTest((lower, 1))
    fn = boundary_column_fn(A, kind, n)
    for j in range(degree_dim(A, kind, n)):
        if not vanishes(fn(j)):
            return (n, j)
    return None


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
        return ["[%s]" % _tensor_label(names, t) for t in cyclic_quotient(d, n + 1)[0]]
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


def kahler_module(A: Algebra) -> KahlerModule:
    return KahlerModule(A)
