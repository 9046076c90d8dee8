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

phi and epsilon sum sgn(sigma) over the orderings sigma of some slots.
Each ordering's target index is arithmetic over one cached weight table
(arrangement_weights), with no tuple built. When two slots that phi
permutes hold the same basis element, swapping them gives the same tensor
with the opposite sign, so the orderings cancel in pairs: phi returns such
a column as zero at once. Broken mode flips the sign of one ordering, the
transposition (1, 0, 2, ...) at lex position (m-2)! of the table, and sums
the terms, which collide there and leave such a column nonzero. The wedge
slots of epsilon are strictly increasing, never repeated.

A map that passes through another is built from that map's column rule:
theta is phi of each wedge's tensor sent through the CLAMBDA projection,
the streamed trace o phi sends phi's column through the trace's per-degree
projection (_trace_proj), and the morphism chains on CLAMBDA expand the
source's section and project onto the target. A vector goes through a
projection, derived or trace, by complexes._project, and a basis vector by
_basis_image.

The trace/corner pair, the bar section pi/iota, and the cyclic embedding
into the permutation complex are split injections chainwise: tr o corner,
pi o iota are identities, embed_cy induces isomorphisms on homology.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, partial
from math import factorial
from operator import mul

from .algebra import Algebra, AlgebraMorphism, multiply_coords
from .complexes import (KahlerModule, _acc, _derived, _project, index_tuple,
                        tuple_index, wedge_basis)
from .homology import ChainComplex, ChainMapRep
from .linalg import SparseMatrix
from .perms import (cycle_order_rows, cycle_start_sign, cyclic_class,
                    cyclic_index, cyclic_shift, sign as perm_sign,
                    symmetric_index)


@lru_cache(maxsize=None)
def arrangement_weights(k: int, d: int):
    """(sign, w) for each ordering arr of range(k), in lex order: sign is
    sgn(arr), and w[x] = d ** (k - 1 - position of x in arr).

    The tuple index over range(d) of (t[x] for x in arr) is then
    sum(t[x] * w[x]), with no tuple built.
    """
    out = []
    for arr in itertools.permutations(range(k)):
        w = [0] * k
        for pos, x in enumerate(arr):
            w[x] = d ** (k - 1 - pos)
        out.append((perm_sign(tuple(x + 1 for x in arr)), tuple(w)))
    return tuple(out)


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


def _per_degree(column_fn):
    """col(n, j) = column_fn(n)(j), with column_fn called once per degree."""
    fns = {}

    def col(n, j):
        fn = fns.get(n)
        if fn is None:
            fn = fns[n] = column_fn(n)
        return fn(j)

    return col


def _basis_image(proj, j: int) -> dict:
    # column j of a projection (see complexes._project): one signed basis
    # vector, or zero
    image = proj(j)
    return {} if image is None else {image[1]: image[0]}


def _phi_column(d: int, broken: bool, m: int, j: int) -> dict:
    t = index_tuple(j, d, m)
    rest = t[1:]
    base = t[0] * d ** (m - 1)
    weights = arrangement_weights(m - 1, d)
    if broken and m >= 3:
        # the sign of the ordering (1, 0, 2, ...), at lex position (m-2)!,
        # flipped: a repeated slot no longer cancels, and its terms collide
        bad = factorial(m - 2)
        out = {}
        for pos, (s, w) in enumerate(weights):
            _acc(out, base + sum(map(mul, rest, w)), -s if pos == bad else s)
        return out
    if len(set(rest)) < m - 1:
        return {}
    return {base + sum(map(mul, rest, w)): s for s, w in weights}


def phi(A: Algebra, cl: ChainComplex, chh: ChainComplex, broken=False) -> ChainMapRep:
    """Antisymmetrization CL_m -> CHH_{m-1}; identity in degrees 1 and 2.

    (a_1,...,a_m) goes to the signed sum over all orderings of the last m-1
    slots, with a_1 as the Hochschild base point. broken=True flips one term
    sign from degree 3 on, for verifying that verification fails.
    """
    return _chain_map("PHI", cl, chh, 1, partial(_phi_column, A.dim, broken))


def _theta_column(proj, d: int, m: int, j: int) -> dict:
    # phi of the wedge's tensor through proj, the projection onto
    # CLAMBDA_{m-1}: distinct tensors may still meet in one cyclic class
    c = wedge_basis(d, m)[0][j]
    return _project(proj, _phi_column(d, False, m, tuple_index(c, d)))


def theta(A: Algebra, ce: ChainComplex, clam: ChainComplex) -> ChainMapRep:
    """Antisymmetrization CE_m -> CLAMBDA_{m-1}: proj_I o phi on each wedge."""
    return _chain_map("THETA", ce, clam, 1, _per_degree(
        lambda m: partial(_theta_column, _derived(A, "CLAMBDA", m - 1)[3],
                          A.dim, m)))


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
    def column_fn(n):
        _, _, sec, proj = _derived(A, kind, n - shift)
        if section:
            return lambda j: {sec(j): 1}
        return partial(_basis_image, proj)

    return _chain_map(name, src, tgt, shift, _per_degree(column_fn))


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


def _trace_proj(MA: Algebra, base: Algebra, n: int):
    """The generalized trace on CHH_n(M_N(A)) as a projection in the form
    of complexes._derived: tensor index x -> (1, index in CHH_n(A)) or None.

    A tensor of matrix units survives iff its column indices chain into the
    next row cyclically; the image is the tuple of coefficients.
    """
    positions = _matrix_meta(MA, "trace")["positions"]
    D = MA.dim
    d = base.dim
    m = n + 1

    def proj(x):
        pos = [positions[y] for y in index_tuple(x, D, m)]
        if all(pos[k][1] == pos[(k + 1) % m][0] for k in range(m)):
            return 1, tuple_index((p[2] for p in pos), d)
        return None

    return proj


def trace(MA: Algebra, base: Algebra, chh_ma: ChainComplex,
          chh_base: ChainComplex) -> ChainMapRep:
    """Generalized trace CHH_n(M_N(A)) -> CHH_n(A), column by column (_trace_proj)."""
    return _chain_map("TRACE", chh_ma, chh_base, 0, _per_degree(
        lambda n: partial(_basis_image, _trace_proj(MA, base, n))))


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


# -------------------------------------------------------- functorial chains

def morphism_complex_map(f: AlgebraMorphism, kind: str, src_cx: ChainComplex,
                         tgt_cx: ChainComplex) -> ChainMapRep:
    """The chains map a unital algebra morphism induces on CL, CHH, or CLAMBDA.

    f acts on every tensor slot (morphism_tensor_column_fn); on CLAMBDA it
    acts between the source's section and the target's projection.
    """
    if kind not in ("CL", "CHH", "CLAMBDA"):
        raise ValueError("functorial chains exist for CL, CHH, CLAMBDA; got %r" % kind)

    def column_fn(n):
        expand = morphism_tensor_column_fn(f, n if kind == "CL" else n + 1)
        if kind != "CLAMBDA":
            return expand
        section = _derived(f.source, kind, n)[2]
        proj = _derived(f.target, kind, n)[3]
        return lambda j: _project(proj, expand(section(j)))

    return _chain_map("MORPHISM[%s:%s]" % (f.name, kind), src_cx, tgt_cx, 0,
                      _per_degree(column_fn))


# ------------------------------------------------------------ stream columns

def tr_phi_column_fn(MA: Algebra, base: Algebra, m: int):
    """Column function of (trace o phi) on CL_m(M_N(A)), target CHH_{m-1}(A).

    Each phi column goes through the trace's projection (_trace_proj), so
    nothing over the matrix algebra is materialized.
    """
    tr = _trace_proj(MA, base, m - 1)
    D = MA.dim

    def col(jidx: int) -> dict:
        return _project(tr, _phi_column(D, False, m, jidx))

    return col


def theta_nf_column_fn(MA: Algebra, base: Algebra, n: int):
    """Column function of the normal form theta_nf: CL_n(M_N(A)) -> L_n(A).

    A tensor of matrix units is a pattern iff its rows are distinct and its
    columns are exactly the same index set; rows are then relabeled 1..n in
    slot order and the column word becomes the permutation. Everything else
    dies.
    """
    positions = _matrix_meta(MA, "normalization")["positions"]
    D = MA.dim
    d = base.dim

    def col(j: int) -> dict:
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

    return col


def morphism_tensor_column_fn(f: AlgebraMorphism, n: int):
    """Column function of the degree-n CL chains map of a morphism: f on
    each of the n tensor slots, expanded."""
    fcols = f.matrix.columns
    D = f.target.dim
    d = f.source.dim

    def col(jidx: int) -> dict:
        acc = {0: 1}
        for s in index_tuple(jidx, d, n):
            nxt: dict = {}
            for pidx, pv in acc.items():
                base = pidx * D
                for r, rv in fcols[s].items():
                    _acc(nxt, base + r, pv * rv)
            acc = nxt
        return acc

    return col
