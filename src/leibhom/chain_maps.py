"""The comparison chain maps between the built-in complexes.

Shift conventions follow ChainMapRep: a map with shift s sends source degree
n to target degree n - s and satisfies target_d o maps[n] = maps[n-1] o
source_d on the nose (anticommuting maps carry chain_sign = -1).

The degree-lowering antisymmetrization maps (phi, theta) and the quotient
projections are the subjects of the verified identities:

  epsilon o proj_adjoint = phi        proj_I o phi = theta o proj_lie

The trace/corner pair, the bar section pi/iota, and the cyclic embedding
into the permutation complex are split injections chainwise: tr o corner,
pi o iota are identities, embed_cy induces isomorphisms on homology.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .algebra import Algebra, AlgebraMorphism, multiply_coords
from .complexes import (KahlerModule, _acc, cyclic_quotient, index_tuple,
                        proj_to_wedge, tuple_index, wedge_basis)
from .homology import ChainComplex, ChainMapRep
from .linalg import SparseMatrix
from .perms import (cycle_order_rows, cycle_start_sign, cyclic_class,
                    cyclic_index, cyclic_shift, sign as perm_sign,
                    symmetric_index)


@lru_cache(maxsize=None)
def signed_arrangements(k: int):
    """(sign, ordering) for every ordering of range(k), in lex order."""
    out = []
    for p in itertools.permutations(range(k)):
        out.append((perm_sign(tuple(x + 1 for x in p)), p))
    return tuple(out)


def _broken_arrangement(k: int):
    # the adjacent transposition; flipping its sign spoils the chain map
    return (1, 0) + tuple(range(2, k))


def phi(A: Algebra, cl: ChainComplex, chh: ChainComplex, broken=False) -> ChainMapRep:
    """Antisymmetrization CL_m -> CHH_{m-1}; identity in degrees 1 and 2.

    (a_1,...,a_m) goes to the signed sum over all orderings of the last m-1
    slots, with a_1 as the Hochschild base point. broken=True flips one term
    sign from degree 3 on, for verifying that verification fails.
    """
    d = A.dim
    maps = {}
    for m in range(1, cl.cutoff + 1):
        if m - 1 > chh.cutoff:
            break
        bad = _broken_arrangement(m - 1) if (broken and m >= 3) else None
        mat = SparseMatrix(d ** m, d ** m)
        for j in range(d ** m):
            t = index_tuple(j, d, m)
            col = {}
            for s, arr in signed_arrangements(m - 1):
                if arr == bad:
                    s = -s
                _acc(col, tuple_index((t[0],) + tuple(t[1 + x] for x in arr), d), s)
            if col:
                mat.columns[j] = col
        maps[m] = mat
    return ChainMapRep("PHI", cl, chh, 1, maps)


def theta(A: Algebra, ce: ChainComplex, clam: ChainComplex) -> ChainMapRep:
    """Antisymmetrization CE_m -> CLAMBDA_{m-1} through the cyclic quotient."""
    d = A.dim
    maps = {}
    for m in range(1, ce.cutoff + 1):
        if m - 1 > clam.cutoff:
            break
        combos = wedge_basis(d, m)[0]
        proj = cyclic_quotient(d, m)[2]
        mat = SparseMatrix(clam.dims[m - 1], len(combos))
        for j, c in enumerate(combos):
            col = {}
            for s, arr in signed_arrangements(m - 1):
                image = proj[(c[0],) + tuple(c[1 + x] for x in arr)]
                if image is not None:
                    _acc(col, image[1], s * image[0])
            if col:
                mat.columns[j] = col
        maps[m] = mat
    return ChainMapRep("THETA", ce, clam, 1, maps)


def epsilon(A: Algebra, ce_adj: ChainComplex, chh: ChainComplex) -> ChainMapRep:
    """Degree-preserving antisymmetrization A (x) Lambda^n -> A^(x n+1)."""
    d = A.dim
    maps = {}
    for n in range(0, min(ce_adj.cutoff, chh.cutoff) + 1):
        combos = wedge_basis(d, n)[0]
        mat = SparseMatrix(d ** (n + 1), d * len(combos))
        for j in range(d * len(combos)):
            a0, cj = divmod(j, len(combos))
            c = combos[cj]
            col = {}
            for s, arr in signed_arrangements(n):
                _acc(col, tuple_index((a0,) + tuple(c[x] for x in arr), d), s)
            if col:
                mat.columns[j] = col
        maps[n] = mat
    return ChainMapRep("EPSILON", ce_adj, chh, 0, maps)


def proj_lie(A: Algebra, cl: ChainComplex, ce: ChainComplex) -> ChainMapRep:
    """Quotient CL_n -> Lambda^n: sort the tensor slots with sign, kill repeats."""
    d = A.dim
    maps = {0: SparseMatrix.identity(1)}
    for n in range(1, min(cl.cutoff, ce.cutoff) + 1):
        cidx = wedge_basis(d, n)[1]
        mat = SparseMatrix(len(cidx), d ** n)
        for j in range(d ** n):
            pw = proj_to_wedge(index_tuple(j, d, n))
            if pw is not None:
                mat.columns[j][cidx[pw[1]]] = pw[0]
        maps[n] = mat
    return ChainMapRep("PROJ_LIE", cl, ce, 0, maps)


def proj_adjoint(A: Algebra, cl: ChainComplex, ce_adj: ChainComplex) -> ChainMapRep:
    """CL_m -> A (x) Lambda^(m-1): first slot as coefficient, rest wedged."""
    d = A.dim
    maps = {}
    for m in range(1, cl.cutoff + 1):
        if m - 1 > ce_adj.cutoff:
            break
        cidx_lo = wedge_basis(d, m - 1)[1]
        wlo = len(cidx_lo)
        mat = SparseMatrix(d * wlo, d ** m)
        for j in range(d ** m):
            t = index_tuple(j, d, m)
            pw = proj_to_wedge(t[1:])
            if pw is not None:
                mat.columns[j][t[0] * wlo + cidx_lo[pw[1]]] = pw[0]
        maps[m] = mat
    return ChainMapRep("PROJ_ADJOINT", cl, ce_adj, 1, maps)


def proj_I(A: Algebra, chh: ChainComplex, clam: ChainComplex) -> ChainMapRep:
    """The quotient map CHH_n -> CLAMBDA_n by the signed rotation action."""
    d = A.dim
    maps = {}
    for n in range(0, min(chh.cutoff, clam.cutoff) + 1):
        proj = cyclic_quotient(d, n + 1)[2]
        mat = SparseMatrix(clam.dims[n], d ** (n + 1))
        for j in range(d ** (n + 1)):
            image = proj[index_tuple(j, d, n + 1)]
            if image is not None:
                mat.columns[j][image[1]] = image[0]
        maps[n] = mat
    return ChainMapRep("PROJ_I", chh, clam, 0, maps)


# ------------------------------------------------------------ Kahler bridge

def omega_complex(km: KahlerModule, cutoff: int) -> ChainComplex:
    """Differential forms as a complex with zero boundaries (A is smooth-free here)."""
    dims = [km.omega_dim(n) for n in range(cutoff + 1)]
    boundaries = [None] + [SparseMatrix(dims[n - 1], dims[n])
                           for n in range(1, cutoff + 1)]
    return ChainComplex("OMEGA", dims, boundaries)


def p_kahler(A: Algebra, km: KahlerModule, cl: ChainComplex,
             om: ChainComplex) -> ChainMapRep:
    """CL_m -> Omega_{m-1}: identity, then a_1 (x) a_2 -> a_1 d(a_2), then zero.

    Both sides have zero boundaries (A commutative), so this is a chain map
    for trivial reasons; the content lives in the comparison with phi.
    """
    d = A.dim
    maps = {1: SparseMatrix.identity(d)}
    if cl.cutoff >= 2 and om.cutoff >= 1:
        mat = SparseMatrix(km.dim1, d * d)
        for j in range(d * d):
            a1, a2 = divmod(j, d)
            lift = {}
            for pos, cv in km.diff_coords(a2).items():
                lift[km.rep_indices[pos]] = cv
            col = km.project1(multiply_coords(A, {a1: 1}, lift))
            if col:
                mat.columns[j] = col
        maps[2] = mat
    for m in range(3, cl.cutoff + 1):
        if m - 1 > om.cutoff:
            break
        maps[m] = SparseMatrix(0, d ** m)
    return ChainMapRep("P_KAHLER", cl, om, 1, maps)


def eps_omega(km: KahlerModule, om: ChainComplex, chh: ChainComplex) -> ChainMapRep:
    """Monomial section Omega_n -> CHH_n: e dg -> e (x) g; zero from degree 2."""
    A = km.algebra
    d = A.dim
    maps = {0: SparseMatrix.identity(d)}
    if om.cutoff >= 1 and chh.cutoff >= 1:
        mat = SparseMatrix(d * d, km.dim1)
        for pos, bi in enumerate(km.rep_indices):
            col = {}
            for gj, gv in km.generator_coords.items():
                col[bi * d + gj] = gv
            mat.columns[pos] = col
        maps[1] = mat
    for n in range(2, min(om.cutoff, chh.cutoff) + 1):
        maps[n] = SparseMatrix(d ** (n + 1), 0)
    return ChainMapRep("EPS_OMEGA", om, chh, 0, maps)


# ---------------------------------------------------------- matrix algebras

def trace(MA: Algebra, base: Algebra, chh_ma: ChainComplex,
          chh_base: ChainComplex) -> ChainMapRep:
    """Generalized trace CHH_n(M_N(A)) -> CHH_n(A).

    A tensor of matrix units survives iff its column indices chain into the
    next row cyclically; the image is the tuple of coefficients.
    """
    meta = MA.matrix_meta
    if meta is None:
        raise ValueError("trace needs a matrix algebra, got %s" % MA.name)
    positions = meta["positions"]
    D = MA.dim
    d = base.dim
    maps = {}
    for n in range(0, min(chh_ma.cutoff, chh_base.cutoff) + 1):
        mat = SparseMatrix(d ** (n + 1), D ** (n + 1))
        for j in range(D ** (n + 1)):
            pos = [positions[x] for x in index_tuple(j, D, n + 1)]
            if all(pos[k][1] == pos[(k + 1) % (n + 1)][0] for k in range(n + 1)):
                mat.columns[j][tuple_index(tuple(p[2] for p in pos), d)] = 1
        maps[n] = mat
    return ChainMapRep("TRACE", chh_ma, chh_base, 0, maps)


def corner(base: Algebra, MA: Algebra, chh_base: ChainComplex,
           chh_ma: ChainComplex) -> ChainMapRep:
    """Corner embedding a -> E_11[a] on Hochschild chains; tr o corner = id."""
    meta = MA.matrix_meta
    if meta is None:
        raise ValueError("corner needs a matrix algebra, got %s" % MA.name)
    idx = meta["index"]
    D = MA.dim
    d = base.dim
    maps = {}
    for n in range(0, min(chh_base.cutoff, chh_ma.cutoff) + 1):
        mat = SparseMatrix(D ** (n + 1), d ** (n + 1))
        for j in range(d ** (n + 1)):
            mt = tuple(idx[(1, 1, b)] for b in index_tuple(j, d, n + 1))
            mat.columns[j][tuple_index(mt, D)] = 1
        maps[n] = mat
    return ChainMapRep("CORNER", chh_base, chh_ma, 0, maps)


# -------------------------------------------------------------- group rings

def bar_pi(G: Algebra, chh_g: ChainComplex, bar: ChainComplex) -> ChainMapRep:
    """CHH_n(QG) -> BAR_n: keep tuples whose total product is the identity."""
    meta = G.group_meta
    if meta is None:
        raise ValueError("bar projection needs a group algebra, got %s" % G.name)
    cay = meta["cayley"]
    e = meta["identity"]
    g = meta["order"]
    maps = {}
    for n in range(0, min(chh_g.cutoff, bar.cutoff) + 1):
        mat = SparseMatrix(bar.dims[n], g ** (n + 1))
        for j in range(g ** (n + 1)):
            t = index_tuple(j, g, n + 1)
            prod = t[0]
            for x in t[1:]:
                prod = cay[prod][x]
            if prod == e:
                mat.columns[j][tuple_index(t[1:], g)] = 1
        maps[n] = mat
    return ChainMapRep("BAR_PI", chh_g, bar, 0, maps)


def bar_iota(G: Algebra, bar: ChainComplex, chh_g: ChainComplex) -> ChainMapRep:
    """BAR_n -> CHH_n(QG): prepend the inverse of the product; pi o iota = id."""
    meta = G.group_meta
    if meta is None:
        raise ValueError("bar section needs a group algebra, got %s" % G.name)
    cay = meta["cayley"]
    inv = meta["inverse"]
    e = meta["identity"]
    g = meta["order"]
    maps = {}
    for n in range(0, min(bar.cutoff, chh_g.cutoff) + 1):
        mat = SparseMatrix(g ** (n + 1), bar.dims[n])
        for j in range(bar.dims[n]):
            t = index_tuple(j, g, n)
            prod = e
            for x in t:
                prod = cay[prod][x]
            mat.columns[j][tuple_index((inv[prod],) + t, g)] = 1
        maps[n] = mat
    return ChainMapRep("BAR_IOTA", bar, chh_g, 0, maps)


# ------------------------------------------------- permutation complex maps

def embed_cy(A: Algebra, chh: ChainComplex, p_cx: ChainComplex) -> ChainMapRep:
    """CHH_n -> P_n along the standard cycle, whose faces are all standard."""
    d = A.dim
    maps = {}
    for n in range(0, min(chh.cutoff, p_cx.cutoff) + 1):
        base = cyclic_index(n + 1)[cyclic_shift(n + 1)] * (d ** (n + 1))
        mat = SparseMatrix(p_cx.dims[n], d ** (n + 1))
        for j in range(d ** (n + 1)):
            mat.columns[j][base + j] = 1
        maps[n] = mat
    return ChainMapRep("EMBED_CY", chh, p_cx, 0, maps)


def _slot_tuple(sigma, t):
    rows = cycle_order_rows(sigma)
    b = [0] * len(rows)
    for pos, r in enumerate(rows):
        b[r - 1] = t[pos]
    return tuple(b)


def cycle_slot_bridge(A: Algebra, p_cx: ChainComplex, l_cx: ChainComplex) -> ChainMapRep:
    """P_n -> L_{n+1}: reindex cycle-order tuples to slots, signed by the
    parity of the cycle-order word. With that sign it is a chain map raising
    degree by one; this is the fact that pins the P boundary to the matrix
    transport boundary.
    """
    d = A.dim
    maps = {}
    for n in range(0, p_cx.cutoff + 1):
        if n + 1 > l_cx.cutoff:
            break
        cyc = cyclic_class(n + 1)
        sidx = symmetric_index(n + 1)
        dhi = d ** (n + 1)
        mat = SparseMatrix(l_cx.dims[n + 1], p_cx.dims[n])
        for j in range(p_cx.dims[n]):
            s_i, t_i = divmod(j, dhi)
            sigma = cyc[s_i]
            b = _slot_tuple(sigma, index_tuple(t_i, d, n + 1))
            mat.columns[j][sidx[sigma] * dhi + tuple_index(b, d)] = \
                cycle_start_sign(sigma)
        maps[n] = mat
    return ChainMapRep("CYCLE_SLOT_BRIDGE", p_cx, l_cx, -1, maps)


def lift_p(A: Algebra, MA: Algebra, p_cx: ChainComplex,
           cl_ma: ChainComplex) -> ChainMapRep:
    """P_n(A) -> CL_{n+1}(M_N(A)): matrix units along the permutation.

    sigma (x) tuple goes to E[b_1]_{1 sigma(1)} (x) ... slotwise, where b is
    the tuple reindexed from cycle order to slots. Defined for n + 1 <= N.
    Not a chain map; used through composites with the trace.
    """
    meta = MA.matrix_meta
    if meta is None:
        raise ValueError("lift needs a matrix algebra target, got %s" % MA.name)
    idx = meta["index"]
    N = meta["N"]
    D = MA.dim
    d = A.dim
    maps = {}
    for n in range(0, p_cx.cutoff + 1):
        if n + 1 > cl_ma.cutoff or n + 1 > N:
            break
        cyc = cyclic_class(n + 1)
        dhi = d ** (n + 1)
        mat = SparseMatrix(D ** (n + 1), p_cx.dims[n])
        for j in range(p_cx.dims[n]):
            s_i, t_i = divmod(j, dhi)
            sigma = cyc[s_i]
            b = _slot_tuple(sigma, index_tuple(t_i, d, n + 1))
            mt = tuple(idx[(s + 1, sigma[s], b[s])] for s in range(n + 1))
            mat.columns[j][tuple_index(mt, D)] = 1
        maps[n] = mat
    return ChainMapRep("LIFT_P", p_cx, cl_ma, -1, maps)


def theta_nf(MA: Algebra, base: Algebra, cl_ma: ChainComplex,
             l_base: ChainComplex) -> ChainMapRep:
    """Normalization CL_n(M_N(A)) -> L_n(A).

    A tensor of matrix units is a pattern iff its rows are distinct and its
    columns are exactly the same index set; rows are then relabeled 1..n in
    slot order and the column word becomes the permutation. Everything else
    dies.
    """
    meta = MA.matrix_meta
    if meta is None:
        raise ValueError("normalization needs a matrix algebra, got %s" % MA.name)
    positions = meta["positions"]
    D = MA.dim
    d = base.dim
    maps = {0: SparseMatrix.identity(1)}
    for n in range(1, min(cl_ma.cutoff, l_base.cutoff) + 1):
        sidx = symmetric_index(n)
        dn = d ** n
        mat = SparseMatrix(l_base.dims[n], D ** n)
        for j in range(D ** n):
            pos = [positions[x] for x in index_tuple(j, D, n)]
            rows_ = [p[0] for p in pos]
            cols_ = [p[1] for p in pos]
            if (len(set(rows_)) != n or len(set(cols_)) != n
                    or set(cols_) != set(rows_)):
                continue
            rho = {r: s + 1 for s, r in enumerate(rows_)}
            sigma = tuple(rho[c] for c in cols_)
            b = tuple(p[2] for p in pos)
            mat.columns[j][sidx[sigma] * dn + tuple_index(b, d)] = 1
        maps[n] = mat
    return ChainMapRep("THETA_NF", cl_ma, l_base, 0, maps)


# -------------------------------------------------------- functorial chains

def _tensor_expand(fm: SparseMatrix, t, D: int) -> dict:
    acc = {0: 1}
    for s in t:
        nxt: dict = {}
        fcol = fm.columns[s]
        for pidx, pv in acc.items():
            base = pidx * D
            for r, rv in fcol.items():
                _acc(nxt, base + r, pv * rv)
        acc = nxt
    return acc


def morphism_complex_map(f: AlgebraMorphism, kind: str, src_cx: ChainComplex,
                         tgt_cx: ChainComplex) -> ChainMapRep:
    """The chains map a unital algebra morphism induces on CL, CHH, or CLAMBDA."""
    fm = f.matrix
    D = f.target.dim
    d = f.source.dim
    top = min(src_cx.cutoff, tgt_cx.cutoff)
    maps = {}
    if kind == "CL":
        maps[0] = SparseMatrix.identity(1)
        for n in range(1, top + 1):
            mat = SparseMatrix(D ** n, d ** n)
            for j in range(d ** n):
                col = _tensor_expand(fm, index_tuple(j, d, n), D)
                if col:
                    mat.columns[j] = col
            maps[n] = mat
    elif kind == "CHH":
        for n in range(0, top + 1):
            mat = SparseMatrix(D ** (n + 1), d ** (n + 1))
            for j in range(d ** (n + 1)):
                col = _tensor_expand(fm, index_tuple(j, d, n + 1), D)
                if col:
                    mat.columns[j] = col
            maps[n] = mat
    elif kind == "CLAMBDA":
        for n in range(0, top + 1):
            reps_src = cyclic_quotient(d, n + 1)[0]
            proj_tgt = cyclic_quotient(D, n + 1)[2]
            mat = SparseMatrix(tgt_cx.dims[n], src_cx.dims[n])
            for j, t in enumerate(reps_src):
                col: dict = {}
                for aidx, v in _tensor_expand(fm, t, D).items():
                    image = proj_tgt[index_tuple(aidx, D, n + 1)]
                    if image is not None:
                        _acc(col, image[1], v * image[0])
                if col:
                    mat.columns[j] = col
            maps[n] = mat
    else:
        raise ValueError("functorial chains exist for CL, CHH, CLAMBDA; got %r" % kind)
    return ChainMapRep("MORPHISM[%s:%s]" % (f.name, kind), src_cx, tgt_cx, 0, maps)


# ------------------------------------------------------------ stream columns

def tr_phi_column_fn(MA: Algebra, base: Algebra, m: int):
    """Column function of (trace o phi) on CL_m(M_N(A)), target CHH_{m-1}(A).

    Avoids materializing anything over the matrix algebra: each phi term is
    a tuple of matrix-unit positions, and only trace paths contribute.
    """
    meta = MA.matrix_meta
    if meta is None:
        raise ValueError("trace stream needs a matrix algebra, got %s" % MA.name)
    positions = meta["positions"]
    D = MA.dim
    d = base.dim
    arrs = signed_arrangements(m - 1)

    def col(jidx: int) -> dict:
        pos = [positions[x] for x in index_tuple(jidx, D, m)]
        head, rest = pos[0], pos[1:]
        out: dict = {}
        for s, arr in arrs:
            seq = [head] + [rest[x] for x in arr]
            if all(seq[k][1] == seq[(k + 1) % m][0] for k in range(m)):
                _acc(out, tuple_index(tuple(p[2] for p in seq), d), s)
        return out

    return col


def morphism_tensor_column_fn(f: AlgebraMorphism, n: int):
    """Column function of the degree-n CL chains map of a morphism."""
    fm = f.matrix
    D = f.target.dim
    d = f.source.dim

    def col(jidx: int) -> dict:
        return _tensor_expand(fm, index_tuple(jidx, d, n), D)

    return col
