"""Bounded chain complexes over Q: homology, induced maps, mapping cones.

A complex built at cutoff c carries boundaries d_1..d_c and yields
trustworthy homology through degree c-1 only (degree c lacks its incoming
boundary); the API enforces this. Homology data is computed lazily in two
stages: Betti numbers need only two ranks, while representatives and the
coordinate solver are materialized on first use. The solver is a single
tracked Echelon built modulo the image of d_{n+1}, so class coordinates come
out of one reduction.
"""

from __future__ import annotations

from .linalg import (Echelon, SparseMatrix, ZeroTest, blocked_rank,
                     kernel_basis, rank_only)


class ChainComplex:
    def __init__(self, kind, dims, boundaries, ranks=None):
        self.kind = kind
        self.dims = list(dims)
        self.boundaries = list(boundaries)  # boundaries[n] = d_n, index 0 unused
        # {n: rank d_n}; build_complex passes its session's memo, shared by
        # every complex over the same boundaries, so each is ranked once
        self._ranks = {} if ranks is None else ranks
        self._homology = {}
        if len(self.boundaries) != len(self.dims):
            raise ValueError("need one boundary slot per degree")
        for n in range(1, self.cutoff + 1):
            b = self.boundaries[n]
            if b.rows != self.dims[n - 1] or b.cols != self.dims[n]:
                raise ValueError("boundary %d has shape %dx%d, expected %dx%d"
                                 % (n, b.rows, b.cols, self.dims[n - 1], self.dims[n]))

    @property
    def cutoff(self) -> int:
        return len(self.dims) - 1

    def boundary(self, n: int) -> SparseMatrix:
        if not 1 <= n <= self.cutoff:
            raise ValueError("boundary degree %d outside 1..%d" % (n, self.cutoff))
        return self.boundaries[n]

    def rank_boundary(self, n: int) -> int:
        if n <= 0 or n > self.cutoff:
            if n <= 0:
                return 0
            raise ValueError("rank of d_%d not available at cutoff %d" % (n, self.cutoff))
        if n not in self._ranks:
            d = self.boundaries[n]
            rank = rank_only(d)
            assert 0 <= rank <= min(d.rows, d.cols), (self.kind, n, rank)
            self._ranks[n] = rank
        return self._ranks[n]

    def homology(self, n: int) -> "HomologyData":
        """Valid for 0 <= n <= cutoff-1; degree cutoff lacks d_{cutoff+1}."""
        if not 0 <= n <= self.cutoff - 1:
            raise ValueError("homology degree %d outside 0..%d (cutoff %d)"
                             % (n, self.cutoff - 1, self.cutoff))
        if n not in self._homology:
            betti = self.dims[n] - self.rank_boundary(n) - self.rank_boundary(n + 1)
            if betti < 0:
                raise ValueError("%s betti %d in degree %d: the boundaries do "
                                 "not compose to zero" % (self.kind, betti, n))
            self._homology[n] = HomologyData(self, n, betti)
        return self._homology[n]

    def betti(self, n: int) -> int:
        return self.homology(n).betti

    def __repr__(self):
        return "ChainComplex(%s, dims=%s)" % (self.kind, self.dims)


def verify_boundary_squares(C: ChainComplex):
    """Check d_{n-1} o d_n = 0 for 2 <= n <= cutoff, column by column.

    Returns (True, None), or (False, (degree, column)) for the first column
    of d_n that d_{n-1} does not send to zero.
    """
    for n in range(2, C.cutoff + 1):
        upper = C.boundaries[n]
        vanishes = ZeroTest((C.boundaries[n - 1], 1))
        for j in range(upper.cols):
            if not vanishes(upper.columns[j]):
                return False, (n, j)
    return True, None


class HomologyData:
    """Betti number plus (lazily) representatives and a coordinate solver.

    The solver is one echelon modulo the image of d_{n+1}: it spans the rest
    of C_n by the chosen representative cycles, then a standard-basis
    completion. Expressing any vector against it yields its class
    coordinates; a cycle is a boundary iff those coordinates vanish.
    """

    def __init__(self, complex_: ChainComplex, degree: int, betti: int):
        self.complex = complex_
        self.degree = degree
        self.betti = betti
        self._solver = None
        self._reps = None
        self._rep_positions = None
        self._completion_start = None

    @property
    def representatives(self):
        self._ensure_solver()
        return self._reps

    def _ensure_solver(self):
        if self._solver is not None:
            return
        C, n = self.complex, self.degree
        dim_n = C.dims[n]
        if n == 0:
            kernel = [{i: 1} for i in range(dim_n)]
        else:
            kernel = kernel_basis(C.boundary(n))
        # both ranks are memoized (homology() needed them for the betti
        # number); eliminating in another order here must agree with them
        assert C.rank_boundary(n) == dim_n - len(kernel)
        solver = Echelon(track=True, modulo=C.boundary(n + 1).columns)
        assert C.rank_boundary(n + 1) == solver.rank
        want = dim_n - C.rank_boundary(n)  # dim of the cycle space
        reps = []
        rep_positions = []
        for k in kernel:
            if solver.rank >= want:
                break
            if solver.insert(k) is not None:
                reps.append(dict(k))
                rep_positions.append(solver.num_inserted - 1)
        if len(reps) != self.betti:
            raise RuntimeError("representative count %d != betti %d (degree %d)"
                               % (len(reps), self.betti, n))
        # every insert from here on is a standard-basis completion direction
        self._completion_start = solver.num_inserted
        for i in range(dim_n):
            if solver.rank == dim_n:
                break
            solver.insert({i: 1})
        self._solver = solver
        self._reps = reps
        self._rep_positions = rep_positions

    def _reduce(self, vec: dict):
        """(class coordinates, whether vec is a cycle) from one solver pass.

        vec is a cycle iff it has no component along the completion
        directions.
        """
        self._ensure_solver()
        coords = self._solver.express(vec)
        cycle = not any(c for p, c in coords.items()
                        if p >= self._completion_start)
        return tuple(coords.get(p, 0) for p in self._rep_positions), cycle

    def class_coords(self, vec: dict):
        """Homology-class coordinates of any chain, as a length-betti tuple.

        This is the linear functional family dual to the representatives: it
        kills boundaries and the completion directions.
        """
        return self._reduce(vec)[0]

    def is_boundary(self, vec: dict) -> bool:
        """For a cycle: True iff its class vanishes. Raises on non-cycles."""
        coords, cycle = self._reduce(vec)
        if not cycle:
            raise ValueError("vector is not a cycle in degree %d" % self.degree)
        return not any(coords)


class ChainMapRep:
    """Degree-indexed matrices source -> target with a degree shift.

    maps[n] sends source degree n to target degree n - shift. chain_sign
    records the commutation convention: target_d o maps[n] = chain_sign *
    maps[n-1] o source_d (the cone projection anticommutes, everything else
    commutes on the nose).
    """

    def __init__(self, kind, source, target, shift, maps, chain_sign=1):
        self.kind = kind
        self.source = source
        self.target = target
        self.shift = shift
        self.maps = dict(maps)
        self.chain_sign = chain_sign
        for n, m in self.maps.items():
            tn = n - shift
            if m.cols != source.dims[n] or m.rows != target.dims[tn]:
                raise ValueError("map at degree %d has shape %dx%d, expected %dx%d"
                                 % (n, m.rows, m.cols, target.dims[tn], source.dims[n]))

    def degrees(self):
        return sorted(self.maps)

    def __repr__(self):
        return "ChainMapRep(%s, shift=%d, degrees=%s)" % (
            self.kind, self.shift, self.degrees())


def verify_chain_map(F: ChainMapRep, max_degree=None):
    """Check the commutation squares; returns (ok, witness).

    The witness is (degree, column) of the first failing square, comparing
    target_d(F(col)) against chain_sign * F(source_d(col)).
    """
    src, tgt, s = F.source, F.target, F.shift
    for n in F.degrees():
        if max_degree is not None and n > max_degree:
            continue
        if n - 1 not in F.maps:
            continue
        if not (1 <= n <= src.cutoff and 1 <= n - s <= tgt.cutoff):
            continue
        upper = F.maps[n]
        dsrc = src.boundary(n)
        vanishes = ZeroTest((tgt.boundary(n - s), 1),
                            (F.maps[n - 1], -F.chain_sign))
        for j in range(dsrc.cols):
            if not vanishes(upper.columns[j], dsrc.columns[j]):
                return False, (n, j)
    return True, None


def compose_maps(G: ChainMapRep, F: ChainMapRep, kind=None) -> ChainMapRep:
    """G after F; defined in degrees where both factors exist."""
    if G.source is not F.target and G.source.dims != F.target.dims:
        raise ValueError("composition mismatch: %s then %s" % (F.kind, G.kind))
    maps = {}
    for n, m in F.maps.items():
        gn = n - F.shift
        if gn in G.maps:
            maps[n] = G.maps[gn].matmul(m)
    return ChainMapRep(kind or ("%s.%s" % (G.kind, F.kind)), F.source, G.target,
                       F.shift + G.shift, maps,
                       chain_sign=F.chain_sign * G.chain_sign)


def induced_map(F: ChainMapRep, n: int) -> SparseMatrix:
    """Matrix of F_* : H_n(source) -> H_{n-shift}(target) in representative bases."""
    if n not in F.maps:
        raise ValueError("chain map has no degree-%d component" % n)
    hs = F.source.homology(n)
    ht = F.target.homology(n - F.shift)
    mat = F.maps[n]

    def col(j: int) -> dict:
        coords, cycle = ht._reduce(mat.apply(hs.representatives[j]))
        if not cycle:
            raise ValueError(
                "image of a degree-%d representative is not a cycle "
                "(signals an unverified chain map)" % n)
        return {i: v for i, v in enumerate(coords) if v}

    return SparseMatrix.from_columns(ht.betti, hs.betti, col)


def induced_rank_streamed(dim_source, dim_below, boundary_col, map_col,
                          target_hom: HomologyData, stop_at_target=False):
    """Rank of the induced map on homology without target-side materialization.

    For each source basis column j the stacked vector (d(e_j), psi(F(e_j)))
    goes into a staircase echelon with the boundary block leading; pivots
    landing in the psi block count exactly rank(F_*), because restricting the
    class functionals psi to the cycle space quotients out the row space of
    d. With stop_at_target the stream stops once the target Betti number is
    reached (surjectivity established; the count can only grow).

    Returns (rank_lower_bound, completed).
    """
    split = dim_below
    want = target_hom.betti if stop_at_target else None

    def stacked():
        for j in range(dim_source):
            vec = dict(boundary_col(j))
            psi = target_hom.class_coords(map_col(j))
            for l, val in enumerate(psi):
                if val:
                    vec[split + l] = val
            yield vec

    first, second, completed = blocked_rank(stacked(), split, stop_at_second=want)
    return second, completed


class MappingCone:
    """Cone of a degree-preserving chain map f: C -> C'.

    M_n = C_{n-1} (+) C'_n with the C block first; the boundary is
    d(c, c') = (-dc, dc' + fc). proj picks out the C block (it anticommutes,
    shift 1) and incl embeds C' (a chain map); proj o incl = 0.
    """

    def __init__(self, cone, proj, incl, of):
        self.cone = cone
        self.proj = proj
        self.incl = incl
        self.of = of


def cone_column_fn(c_block: int, rows_c: int, d_src, f, d_tgt):
    """Column j of the cone boundary d(c, c') = (-dc, dc' + fc) in one degree n.

    The source is C_{n-1} (+) C'_n, whose first c_block columns are the C
    block; the target is C_{n-2} (+) C'_{n-1}, whose first rows_c rows are
    the C block. d_src, f and d_tgt give the columns of d_{n-1} on C, of
    f_{n-1} and of d_n on C'; d_src or f None is a zero block. The two C
    block terms land in disjoint rows, so the column needs no pruning.
    """
    def col(j: int) -> dict:
        if j >= c_block:
            return {rows_c + i: v for i, v in d_tgt(j - c_block).items()}
        out = {i: -v for i, v in d_src(j).items()} if d_src else {}
        if f:
            for i, v in f(j).items():
                out[rows_c + i] = v
        return out

    return col


def pair_column_fn(c_block_src: int, c_block_tgt: int, v_col, w_col):
    """Column j of the blockwise map (c, c') -> (V c, W c') between cones.

    c_block_src columns and c_block_tgt rows are the C blocks; v_col and
    w_col give the columns of V and W, and v_col None is a zero block.
    """
    def col(j: int) -> dict:
        if j < c_block_src:
            return v_col(j) if v_col else {}
        return {c_block_tgt + i: v for i, v in w_col(j - c_block_src).items()}

    return col


def mapping_cone(F: ChainMapRep) -> MappingCone:
    if F.shift != 0:
        raise ValueError("mapping cone needs a degree-preserving map")
    C, Cp = F.source, F.target
    cutoff = min(C.cutoff, Cp.cutoff)
    cblock = [0] + C.dims[:cutoff]  # cblock[n] = dim C_{n-1}
    dims = [cblock[n] + Cp.dims[n] for n in range(cutoff + 1)]
    boundaries = [None]
    for n in range(1, cutoff + 1):
        fcols = F.maps[n - 1].columns if n - 1 in F.maps else None
        col = cone_column_fn(
            cblock[n], cblock[n - 1],
            C.boundary(n - 1).columns.__getitem__ if n >= 2 else None,
            fcols.__getitem__ if fcols else None,
            Cp.boundary(n).columns.__getitem__)
        boundaries.append(SparseMatrix.from_columns(dims[n - 1], dims[n], col))
    cone = ChainComplex("CONE(%s)" % F.kind, dims, boundaries)
    proj_maps = {n: SparseMatrix.from_columns(
        cblock[n], dims[n], lambda j, b=cblock[n]: {j: 1} if j < b else {})
        for n in range(1, cutoff + 1)}
    incl_maps = {n: SparseMatrix.from_columns(
        dims[n], Cp.dims[n], lambda j, b=cblock[n]: {b + j: 1})
        for n in range(cutoff + 1)}
    proj = ChainMapRep("CONE_PROJ", cone, C, 1, proj_maps, chain_sign=-1)
    incl = ChainMapRep("CONE_INCL", Cp, cone, 0, incl_maps)
    return MappingCone(cone, proj, incl, F)


def cone_pair_map(src: MappingCone, tgt: MappingCone, V: ChainMapRep,
                  W: ChainMapRep, kind="CONE_PAIR") -> ChainMapRep:
    """Blockwise map cone(f) -> cone(g) from a commuting square (V, W).

    V maps the sources of f and g, W the targets, both with the same shift s;
    the pair sends M_n = C_{n-1} (+) C'_n to N_{n-s} componentwise. It is a
    chain map whenever V and W are and g o V = W o f.
    """
    if V.shift != W.shift:
        raise ValueError("mismatched shifts in cone pair")
    s = V.shift
    maps = {}
    for n in range(src.cone.cutoff + 1):
        if n - s < 0 or n - s > tgt.cone.cutoff:
            continue
        vs = n - 1
        if n not in W.maps:
            continue
        c_block_src = V.source.dims[n - 1] if n >= 1 else 0
        c_block_tgt = V.target.dims[n - 1 - s] if n - s >= 1 else 0
        # a missing V component is only acceptable when its target block is
        # empty (the component is then the zero map into nothing)
        if vs >= 0 and vs not in V.maps and c_block_src and c_block_tgt:
            continue
        v_col = V.maps[vs].columns.__getitem__ if vs in V.maps else None
        maps[n] = SparseMatrix.from_columns(
            tgt.cone.dims[n - s], src.cone.dims[n],
            pair_column_fn(c_block_src, c_block_tgt, v_col,
                           W.maps[n].columns.__getitem__))
    return ChainMapRep(kind, src.cone, tgt.cone, s, maps)


def exactness_check(matrices):
    """Exactness of V_0 -> V_1 -> ... at every internal node.

    Each node checks composite = 0 and rank(incoming) = nullity(outgoing).
    Returns a list of per-node dicts with the computed numbers. Each matrix
    is ranked once, though inner ones serve two nodes.
    """
    for a, b in zip(matrices, matrices[1:]):
        if b.cols != a.rows:
            raise ValueError("sequence not composable: %dx%d then %dx%d"
                             % (a.rows, a.cols, b.rows, b.cols))
    ranks = [rank_only(M) for M in matrices]
    report = []
    for idx in range(len(matrices) - 1):
        fin, fout = matrices[idx], matrices[idx + 1]
        composite_zero = fout.matmul(fin).is_zero()
        rank_in = ranks[idx]
        nullity_out = fout.cols - ranks[idx + 1]
        report.append({
            "node": idx + 1,
            "composite_zero": composite_zero,
            "rank_in": rank_in,
            "nullity_out": nullity_out,
            "exact": composite_zero and rank_in == nullity_out,
        })
    return report


def les_of_cone(mc: MappingCone, top_degree: int):
    """Long exact sequence of a cone, from H_top(source) down to H_0(cone) -> 0.

    Returns (matrices, labels): the alternating induced maps f_*, incl_*, and
    the connecting map (induced by the cone projection), terminated by the
    zero map out of H_0(cone) so exactness at the tail is checked too.
    """
    F = mc.of
    mats = []
    labels = []
    for n in range(top_degree, -1, -1):
        mats.append(induced_map(F, n))
        labels.append("H_%d(src) -> H_%d(tgt)" % (n, n))
        mats.append(induced_map(mc.incl, n))
        labels.append("H_%d(tgt) -> H_%d(cone)" % (n, n))
        if n >= 1:
            mats.append(induced_map(mc.proj, n))
            labels.append("H_%d(cone) -> H_%d(src)" % (n, n - 1))
    tail = SparseMatrix(0, mc.cone.homology(0).betti)
    mats.append(tail)
    labels.append("H_0(cone) -> 0")
    return mats, labels
