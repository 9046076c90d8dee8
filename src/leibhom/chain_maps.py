"""The comparison chain maps between the built-in complexes.

Shift conventions follow ChainMapRep: a map with shift s sends source degree
n to target degree n - s and satisfies target_d o maps[n] = maps[n-1] o
source_d on the nose (anticommuting maps carry chain_sign = -1).

Every map here is a column function col(n, j), the image of basis vector j
of source degree n, like the boundaries' column functions. One degree rule
turns it into matrices (_chain_map): a component for every degree n with
max(0, s) <= n <= min(source cutoff, target cutoff + s), of shape
target.dims[n - s] x source.dims[n]. Degree 0 needs no special case, as the
empty tuple indexes the one basis vector of a tensor power A^(x 0).

The degree-lowering antisymmetrization maps (phi, theta) and the quotient
projections are the subjects of the verified identities:

  epsilon o proj_adjoint = phi        proj_I o phi = theta o proj_lie

phi, theta and epsilon sum sgn(sigma) over the orderings sigma of some
slots. Each ordering's target index is arithmetic over one cached weight
table (arrangement_weights), with no tuple built. When two slots that phi
permutes hold the same basis element, swapping them gives the same tensor
with the opposite sign, so the orderings cancel in pairs: phi returns such
a column as zero at once, and so does the streamed trace o phi. Broken mode
keeps the full loop, since its flipped sign makes such a column nonzero.
The wedge slots of theta and epsilon are strictly increasing, never
repeated.

The trace/corner pair, the bar section pi/iota, and the cyclic embedding
into the permutation complex are split injections chainwise: tr o corner,
pi o iota are identities, embed_cy induces isomorphisms on homology.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from operator import mul

from .algebra import Algebra, AlgebraMorphism, multiply_coords
from .complexes import (KahlerModule, _acc, _derived, cyclic_quotient,
                        index_tuple, tuple_index, wedge_basis)
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


@lru_cache(maxsize=None)
def arrangement_weights(k: int, d: int):
    """(sign, w) for each (sign, arr) of signed_arrangements(k), in its order,
    with w[x] = d ** (k - 1 - position of x in arr).

    The tuple index over range(d) of (t[x] for x in arr) is then
    sum(t[x] * w[x]), with no tuple built.
    """
    out = []
    for s, arr in signed_arrangements(k):
        w = [0] * k
        for pos, x in enumerate(arr):
            w[x] = d ** (k - 1 - pos)
        out.append((s, tuple(w)))
    return tuple(out)


def _broken_arrangement(k: int):
    # the adjacent transposition; flipping its sign spoils the chain map
    return (1, 0) + tuple(range(2, k))


def _chain_map(kind: str, src: ChainComplex, tgt: ChainComplex, shift: int,
               col, top=None) -> ChainMapRep:
    """The map whose degree-n component has column j = col(n, j).

    Components exist for max(0, shift) <= n <= min(src.cutoff, tgt.cutoff +
    shift), and n <= top when top is given.
    """
    hi = min(src.cutoff, tgt.cutoff + shift)
    if top is not None:
        hi = min(hi, top)
    maps = {n: SparseMatrix.from_columns(tgt.dims[n - shift], src.dims[n],
                                         partial(col, n))
            for n in range(max(0, shift), hi + 1)}
    return ChainMapRep(kind, src, tgt, shift, maps)


def _phi_column(d: int, broken: bool, m: int, j: int) -> dict:
    t = index_tuple(j, d, m)
    rest = t[1:]
    if broken and m >= 3:
        # one ordering's sign flipped: a repeated slot no longer cancels
        bad = _broken_arrangement(m - 1)
        out = {}
        for s, arr in signed_arrangements(m - 1):
            if arr == bad:
                s = -s
            _acc(out, tuple_index((t[0],) + tuple(t[1 + x] for x in arr), d), s)
        return out
    if len(set(rest)) < m - 1:
        return {}
    base = t[0] * d ** (m - 1)
    return {base + sum(map(mul, rest, w)): s
            for s, w in arrangement_weights(m - 1, d)}


def phi(A: Algebra, cl: ChainComplex, chh: ChainComplex, broken=False) -> ChainMapRep:
    """Antisymmetrization CL_m -> CHH_{m-1}; identity in degrees 1 and 2.

    (a_1,...,a_m) goes to the signed sum over all orderings of the last m-1
    slots, with a_1 as the Hochschild base point. broken=True flips one term
    sign from degree 3 on, for verifying that verification fails.
    """
    return _chain_map("PHI", cl, chh, 1, partial(_phi_column, A.dim, broken))


def _theta_column(d: int, m: int, j: int) -> dict:
    c = wedge_basis(d, m)[0][j]
    proj = cyclic_quotient(d, m)[2]
    base, rest = c[0] * d ** (m - 1), c[1:]
    out = {}
    # distinct tensors may still meet in one cyclic class
    for s, w in arrangement_weights(m - 1, d):
        image = proj[base + sum(map(mul, rest, w))]
        if image is not None:
            _acc(out, image[1], s * image[0])
    return out


def theta(A: Algebra, ce: ChainComplex, clam: ChainComplex) -> ChainMapRep:
    """Antisymmetrization CE_m -> CLAMBDA_{m-1} through the cyclic quotient."""
    return _chain_map("THETA", ce, clam, 1, partial(_theta_column, A.dim))


def _epsilon_column(d: int, n: int, j: int) -> dict:
    combos = wedge_basis(d, n)[0]
    a0, cj = divmod(j, len(combos))
    base = a0 * d ** n
    return {base + sum(map(mul, combos[cj], w)): s
            for s, w in arrangement_weights(n, d)}


def epsilon(A: Algebra, ce_adj: ChainComplex, chh: ChainComplex) -> ChainMapRep:
    """Degree-preserving antisymmetrization A (x) Lambda^n -> A^(x n+1)."""
    return _chain_map("EPSILON", ce_adj, chh, 0, partial(_epsilon_column, A.dim))


def _derived_map(name: str, A: Algebra, kind: str, src: ChainComplex,
                 tgt: ChainComplex, shift: int, section=False) -> ChainMapRep:
    """The projection onto a derived kind, or with section=True its section,
    read from the derived table once per degree (complexes._derived)."""
    table = {}

    def col(n, j):
        if n not in table:
            table[n] = _derived(A, kind, n - shift)
        if section:
            return {table[n][2](j): 1}
        image = table[n][3](j)
        return {} if image is None else {image[1]: image[0]}

    return _chain_map(name, src, tgt, shift, col)


def proj_lie(A: Algebra, cl: ChainComplex, ce: ChainComplex) -> ChainMapRep:
    """Quotient CL_n -> Lambda^n: sort the tensor slots with sign, kill repeats."""
    return _derived_map("PROJ_LIE", A, "CE", cl, ce, 0)


def proj_adjoint(A: Algebra, cl: ChainComplex, ce_adj: ChainComplex) -> ChainMapRep:
    """CL_m -> A (x) Lambda^(m-1): first slot as coefficient, rest wedged."""
    return _derived_map("PROJ_ADJOINT", A, "CE_ADJ", cl, ce_adj, 1)


def proj_I(A: Algebra, chh: ChainComplex, clam: ChainComplex) -> ChainMapRep:
    """The quotient map CHH_n -> CLAMBDA_n by the signed rotation action."""
    return _derived_map("PROJ_I", A, "CLAMBDA", chh, clam, 0)


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

    def col(m, j):
        if m == 1:
            return {j: 1}
        if m > 2:
            return {}
        a1, a2 = divmod(j, d)
        lift = {km.rep_indices[pos]: cv for pos, cv in km.diff_coords(a2).items()}
        return km.project1(multiply_coords(A, {a1: 1}, lift))

    return _chain_map("P_KAHLER", cl, om, 1, col)


def eps_omega(km: KahlerModule, om: ChainComplex, chh: ChainComplex) -> ChainMapRep:
    """Monomial section Omega_n -> CHH_n: e dg -> e (x) g; zero from degree 2."""
    d = km.algebra.dim

    def col(n, j):
        if n == 0:
            return {j: 1}
        bi = km.rep_indices[j]  # Omega_n = 0 for n >= 2: no columns there
        return {bi * d + gj: gv for gj, gv in km.generator_coords.items()}

    return _chain_map("EPS_OMEGA", om, chh, 0, col)


# ---------------------------------------------------------- matrix algebras

def _matrix_meta(MA: Algebra, what: str) -> dict:
    if MA.matrix_meta is None:
        raise ValueError("%s needs a matrix algebra, got %s" % (what, MA.name))
    return MA.matrix_meta


def trace(MA: Algebra, base: Algebra, chh_ma: ChainComplex,
          chh_base: ChainComplex) -> ChainMapRep:
    """Generalized trace CHH_n(M_N(A)) -> CHH_n(A).

    A tensor of matrix units survives iff its column indices chain into the
    next row cyclically; the image is the tuple of coefficients.
    """
    positions = _matrix_meta(MA, "trace")["positions"]
    D = MA.dim
    d = base.dim

    def col(n, j):
        pos = [positions[x] for x in index_tuple(j, D, n + 1)]
        if all(pos[k][1] == pos[(k + 1) % (n + 1)][0] for k in range(n + 1)):
            return {tuple_index(tuple(p[2] for p in pos), d): 1}
        return {}

    return _chain_map("TRACE", chh_ma, chh_base, 0, col)


def corner(base: Algebra, MA: Algebra, chh_base: ChainComplex,
           chh_ma: ChainComplex) -> ChainMapRep:
    """Corner embedding a -> E_11[a] on Hochschild chains; tr o corner = id."""
    idx = _matrix_meta(MA, "corner")["index"]
    D = MA.dim
    d = base.dim

    def col(n, j):
        mt = tuple(idx[(1, 1, b)] for b in index_tuple(j, d, n + 1))
        return {tuple_index(mt, D): 1}

    return _chain_map("CORNER", chh_base, chh_ma, 0, col)


# -------------------------------------------------------------- group rings

def bar_pi(G: Algebra, chh_g: ChainComplex, bar: ChainComplex) -> ChainMapRep:
    """CHH_n(QG) -> BAR_n: keep tuples whose total product is the identity."""
    return _derived_map("BAR_PI", G, "BAR", chh_g, bar, 0)


def bar_iota(G: Algebra, bar: ChainComplex, chh_g: ChainComplex) -> ChainMapRep:
    """BAR_n -> CHH_n(QG): prepend the inverse of the product; pi o iota = id."""
    return _derived_map("BAR_IOTA", G, "BAR", bar, chh_g, 0, section=True)


# ------------------------------------------------- permutation complex maps

def embed_cy(A: Algebra, chh: ChainComplex, p_cx: ChainComplex) -> ChainMapRep:
    """CHH_n -> P_n along the standard cycle, whose faces are all standard."""
    d = A.dim

    def col(n, j):
        return {cyclic_index(n + 1)[cyclic_shift(n + 1)] * d ** (n + 1) + j: 1}

    return _chain_map("EMBED_CY", chh, p_cx, 0, col)


def _slot_tuple(sigma, t):
    rows = cycle_order_rows(sigma)
    b = [0] * len(rows)
    for pos, r in enumerate(rows):
        b[r - 1] = t[pos]
    return tuple(b)


def _cycle_and_slots(d: int, n: int, j: int):
    """Basis vector j of P_n: its (n+1)-cycle sigma and its slot tuple."""
    s_i, t_i = divmod(j, d ** (n + 1))
    sigma = cyclic_class(n + 1)[s_i]
    return sigma, _slot_tuple(sigma, index_tuple(t_i, d, n + 1))


def cycle_slot_bridge(A: Algebra, p_cx: ChainComplex, l_cx: ChainComplex) -> ChainMapRep:
    """P_n -> L_{n+1}: reindex cycle-order tuples to slots, signed by the
    parity of the cycle-order word. With that sign it is a chain map raising
    degree by one; this is the fact that pins the P boundary to the matrix
    transport boundary.
    """
    d = A.dim

    def col(n, j):
        sigma, b = _cycle_and_slots(d, n, j)
        return {symmetric_index(n + 1)[sigma] * d ** (n + 1) + tuple_index(b, d):
                cycle_start_sign(sigma)}

    return _chain_map("CYCLE_SLOT_BRIDGE", p_cx, l_cx, -1, col)


def lift_p(A: Algebra, MA: Algebra, p_cx: ChainComplex,
           cl_ma: ChainComplex) -> ChainMapRep:
    """P_n(A) -> CL_{n+1}(M_N(A)): matrix units along the permutation.

    sigma (x) tuple goes to E[b_1]_{1 sigma(1)} (x) ... slotwise, where b is
    the tuple reindexed from cycle order to slots. Defined for n + 1 <= N.
    Not a chain map; used through composites with the trace.
    """
    meta = _matrix_meta(MA, "lift")
    idx = meta["index"]
    D = MA.dim
    d = A.dim

    def col(n, j):
        sigma, b = _cycle_and_slots(d, n, j)
        mt = tuple(idx[(s + 1, sigma[s], b[s])] for s in range(n + 1))
        return {tuple_index(mt, D): 1}

    return _chain_map("LIFT_P", p_cx, cl_ma, -1, col, top=meta["N"] - 1)


def theta_nf(MA: Algebra, base: Algebra, cl_ma: ChainComplex,
             l_base: ChainComplex) -> ChainMapRep:
    """Normalization CL_n(M_N(A)) -> L_n(A).

    A tensor of matrix units is a pattern iff its rows are distinct and its
    columns are exactly the same index set; rows are then relabeled 1..n in
    slot order and the column word becomes the permutation. Everything else
    dies.
    """
    positions = _matrix_meta(MA, "normalization")["positions"]
    D = MA.dim
    d = base.dim

    def col(n, j):
        pos = [positions[x] for x in index_tuple(j, D, n)]
        rows_ = [p[0] for p in pos]
        cols_ = [p[1] for p in pos]
        if (len(set(rows_)) != n or len(set(cols_)) != n
                or set(cols_) != set(rows_)):
            return {}
        rho = {r: s + 1 for s, r in enumerate(rows_)}
        sigma = tuple(rho[c] for c in cols_)
        b = tuple(p[2] for p in pos)
        return {symmetric_index(n)[sigma] * d ** n + tuple_index(b, d): 1}

    return _chain_map("THETA_NF", cl_ma, l_base, 0, col)


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
    if kind == "CL":
        def col(n, j):
            return _tensor_expand(fm, index_tuple(j, d, n), D)
    elif kind == "CHH":
        def col(n, j):
            return _tensor_expand(fm, index_tuple(j, d, n + 1), D)
    elif kind == "CLAMBDA":
        def col(n, j):
            proj_tgt = cyclic_quotient(D, n + 1)[2]
            out: dict = {}
            for aidx, v in _tensor_expand(fm, cyclic_quotient(d, n + 1)[0][j],
                                          D).items():
                image = proj_tgt[aidx]
                if image is not None:
                    _acc(out, image[1], v * image[0])
            return out
    else:
        raise ValueError("functorial chains exist for CL, CHH, CLAMBDA; got %r" % kind)
    return _chain_map("MORPHISM[%s:%s]" % (f.name, kind), src_cx, tgt_cx, 0, col)


# ------------------------------------------------------------ stream columns

def tr_phi_column_fn(MA: Algebra, base: Algebra, m: int):
    """Column function of (trace o phi) on CL_m(M_N(A)), target CHH_{m-1}(A).

    Avoids materializing anything over the matrix algebra: each phi term is
    a tuple of matrix-unit positions, and only trace paths contribute.
    """
    positions = _matrix_meta(MA, "trace stream")["positions"]
    D = MA.dim
    d = base.dim
    arrs = signed_arrangements(m - 1)

    def col(jidx: int) -> dict:
        t = index_tuple(jidx, D, m)
        if len(set(t[1:])) < m - 1:
            return {}  # the phi terms cancel in pairs before the trace
        pos = [positions[x] for x in t]
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
