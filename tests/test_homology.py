"""Homology, chain maps as data, mapping cones, and the long exact sequence.

Betti oracles are frozen from independent classical values: the Hochschild
homology of Q is Q in degree zero only; for the dual numbers it is Q^2, Q,
Q, Q, ...; cyclic homology of Q alternates Q, 0, Q, 0; a group algebra
over Q has vanishing positive rational group homology for finite groups;
the upper-triangular 2x2 matrices have the Hochschild and cyclic homology
of Q x Q (Cibils); and Hochschild homology of a tensor product is the
convolution of the factors' (Kunneth).
"""

from fractions import Fraction

import pytest

from leibhom import complexes
from leibhom.algebra import Algebra, builtin_algebra, validate_algebra
from leibhom.chain_maps import phi, proj_I
from leibhom.complexes import (Session, boundary_rank, build_complex,
                               degree_dim)
from leibhom.homology import (ChainComplex, ChainMapRep, NegativeBetti,
                              compose_maps, cone_pair_map, exactness_check,
                              induced_map, induced_rank_streamed, les_of_cone,
                              mapping_cone, verify_boundary_squares,
                              verify_chain_map)
from leibhom.linalg import SparseMatrix, rank_only


def test_betti_oracles_rationals():
    A = builtin_algebra("rationals")
    chh = build_complex(A, "CHH", 4)
    assert [chh.betti(n) for n in range(4)] == [1, 0, 0, 0]
    clam = build_complex(A, "CLAMBDA", 5)
    assert [clam.betti(n) for n in range(5)] == [1, 0, 1, 0, 1]


def test_betti_oracles_dual():
    A = builtin_algebra("dual")
    chh = build_complex(A, "CHH", 5)
    assert [chh.betti(n) for n in range(5)] == [2, 1, 1, 1, 1]
    clam = build_complex(A, "CLAMBDA", 5)
    assert [clam.betti(n) for n in range(5)] == [2, 0, 2, 0, 2]


def test_betti_oracle_split_und_group():
    # Q x Q is separable: higher Hochschild homology vanishes
    S = builtin_algebra("split:2")
    chh = build_complex(S, "CHH", 4)
    assert [chh.betti(n) for n in range(4)] == [2, 0, 0, 0]
    G = builtin_algebra("cyclic:2")
    chh = build_complex(G, "CHH", 4)
    assert [chh.betti(n) for n in range(4)] == [2, 0, 0, 0]
    bar = build_complex(G, "BAR", 4)
    assert [bar.betti(n) for n in range(4)] == [1, 0, 0, 0]


def _bettis(A, kind, top):
    """betti_0..betti_top of kind over A, through boundary_rank."""
    session = Session()
    ranks = [0] + [boundary_rank(A, kind, n, session)
                   for n in range(1, top + 2)]
    return [degree_dim(A, kind, n) - ranks[n] - ranks[n + 1]
            for n in range(top + 1)]


def test_betti_oracle_upper_triangular_matrices():
    """T_2(Q), basis e11, e12, e22, is the path algebra of the quiver with
    one arrow: hereditary, so HH_n vanishes for n >= 1 and HH_0 = Q^2 (one
    class per vertex), and HC_* is that of Q x Q (Cibils)."""
    T = Algebra("upper_triangular:2", ["e11", "e12", "e22"], [1, 0, 1], [
        [[(0, 1)], [(1, 1)], []],
        [[], [], [(1, 1)]],
        [[], [], [(2, 1)]],
    ])
    assert validate_algebra(T).ok and not T.commutative
    assert _bettis(T, "CHH", 4) == [2, 0, 0, 0, 0]
    assert _bettis(T, "CLAMBDA", 4) == [2, 0, 2, 0, 2]


def test_betti_oracle_kunneth_for_dual_tensor_dual():
    """HH_*(A (x) B) = HH_*(A) (x) HH_*(B): for the dual numbers, HH is
    [2, 1, 1, 1, 1, ...], so HH of dual (x) dual = Q[x, y]/(x^2, y^2) is
    the convolution [4, 4, 5, 6, 7]."""
    D = builtin_algebra("dual")
    basis = [(a, b) for a in range(2) for b in range(2)]
    DD = Algebra("dual(x)dual", ["%s(x)%s" % (D.basis_names[a],
                                              D.basis_names[b])
                                 for a, b in basis],
                 [D.unit[a] * D.unit[b] for a, b in basis],
                 [[[(2 * k + m, c * e)
                    for k, c in D.products[a][a2]
                    for m, e in D.products[b][b2]]
                   for a2, b2 in basis] for a, b in basis])
    assert validate_algebra(DD).ok and DD.commutative
    hh = _bettis(D, "CHH", 4)
    assert hh == [2, 1, 1, 1, 1]
    assert _bettis(DD, "CHH", 4) == [
        sum(hh[i] * hh[n - i] for i in range(n + 1)) for n in range(5)] == [
        4, 4, 5, 6, 7]


def test_homology_degree_bounds():
    C = build_complex(builtin_algebra("dual"), "CHH", 3)
    with pytest.raises(ValueError):
        C.homology(3)
    with pytest.raises(ValueError):
        C.homology(-1)


def test_homology_refuses_a_negative_betti_number():
    # d_1 d_2 = 1 != 0, so dim - rank d_1 - rank d_2 = 1 - 1 - 1
    one = SparseMatrix.identity(1)
    C = ChainComplex("BROKEN", [1, 1, 1], [None, one, one])
    assert C.betti(0) == 0
    with pytest.raises(NegativeBetti, match="betti -1"):
        C.homology(1)


@pytest.mark.parametrize("bad", [-1, 2])
def test_rank_boundary_refuses_an_impossible_rank(monkeypatch, bad):
    from leibhom import homology
    monkeypatch.setattr(homology, "rank_only", lambda M: (bad, set()))
    C = ChainComplex("STUB", [1, 1], [None, SparseMatrix.identity(1)])
    with pytest.raises(AssertionError):
        C.rank_boundary(1)
    assert 1 not in C._ranks


def test_solver_build_makes_one_tracked_echelon(monkeypatch):
    from leibhom import homology, linalg
    C = build_complex(builtin_algebra("dual"), "CHH", 4)
    H = C.homology(2)
    made = []

    class Counting(linalg.Echelon):
        def __init__(self, track=False, **kwargs):
            made.append(track)
            super().__init__(track, **kwargs)

    monkeypatch.setattr(linalg, "Echelon", Counting)
    monkeypatch.setattr(homology, "Echelon", Counting)
    assert H.representatives
    # kernel_basis of d_2, then one solver modulo the image of d_3
    assert made == [True, True]


def test_homology_data_representatives_and_coords():
    C = build_complex(builtin_algebra("dual"), "CHH", 3)
    H = C.homology(1)
    assert H.betti == 1
    reps = H.representatives
    assert len(reps) == 1
    d1 = C.boundary(1)
    for rep in reps:
        assert d1.apply(rep) == {}
        assert not H.is_boundary(rep)
        assert any(c != 0 for c in H.class_coords(rep))
    # a boundary has vanishing class coordinates
    d2 = C.boundary(2)
    img = d2.apply({0: Fraction(1), 3: Fraction(2)})
    assert all(c == 0 for c in H.class_coords(img))
    assert H.is_boundary(img)


def test_class_coords_exact_on_fraction_scaled_cycles():
    C = build_complex(builtin_algebra("dual"), "CLAMBDA", 4)
    H = C.homology(2)
    assert H.betti == 2
    boundary = C.boundary(3).apply({0: Fraction(5, 7), 1: Fraction(-2)})
    for i, rep in enumerate(H.representatives):
        cycle = {k: Fraction(1, 3) * v for k, v in rep.items()}
        for k, v in boundary.items():
            cycle[k] = cycle.get(k, 0) + v
        want = tuple(Fraction(1, 3) if l == i else 0 for l in range(2))
        assert H.class_coords({k: v for k, v in cycle.items() if v}) == want
    r0, r1 = H.representatives
    mix = {k: Fraction(1, 3) * r0.get(k, 0) - Fraction(3, 4) * r1.get(k, 0)
           for k in set(r0) | set(r1)}
    assert H.class_coords({k: v for k, v in mix.items() if v}) \
        == (Fraction(1, 3), Fraction(-3, 4))


def test_is_boundary_rejects_non_cycles():
    # degree-1 boundary is ab - ba, nonzero only noncommutatively
    C = build_complex(builtin_algebra("s3"), "CHH", 2)
    H = C.homology(1)
    non_cycle = next({j: Fraction(1)} for j in range(C.dims[1])
                     if C.boundary(1).apply({j: Fraction(1)}) != {})
    with pytest.raises(ValueError):
        H.is_boundary(non_cycle)


def test_induced_map_rejects_a_non_cycle_image():
    C = build_complex(builtin_algebra("dual"), "CHH", 3)
    assert C.betti(2) == 1
    non_cycle = next({j: 1} for j in range(C.dims[2])
                     if C.boundary(2).apply({j: 1}) != {})
    M = SparseMatrix(C.dims[2], C.dims[2])
    M.columns = [dict(non_cycle) for _ in range(C.dims[2])]
    with pytest.raises(ValueError, match="not a cycle"):
        induced_map(ChainMapRep("BAD", C, C, 0, {2: M}), 2)


def test_induced_map_expresses_each_representative_once(monkeypatch):
    A = builtin_algebra("dual")
    F = phi(A, build_complex(A, "CL", 4), build_complex(A, "CHH", 4))
    target = F.target.homology(2)
    assert target.representatives
    calls = []
    real = target._solver.express

    def counting(vec):
        calls.append(vec)
        return real(vec)

    monkeypatch.setattr(target._solver, "express", counting)
    induced = induced_map(F, 3)
    assert len(calls) == F.source.betti(3) == induced.cols > 0


def test_verify_chain_map_accepts_phi_and_rejects_broken():
    A = builtin_algebra("dual")
    cl = build_complex(A, "CL", 4)
    chh = build_complex(A, "CHH", 4)
    ok, wit = verify_chain_map(phi(A, cl, chh), 4)
    assert ok and wit is None
    from leibhom.chain_maps import phi as mk
    broken = mk(A, cl, chh, broken=True)
    ok, wit = verify_chain_map(broken, 4)
    assert not ok
    assert wit is not None and len(wit) == 2


def test_chain_map_shape_checks():
    C = build_complex(builtin_algebra("dual"), "CHH", 2)
    with pytest.raises(ValueError):
        ChainMapRep("BAD", C, C, 0, {1: SparseMatrix(3, 3)})


def test_induced_map_matches_streamed_rank():
    A = builtin_algebra("dual")
    cl = build_complex(A, "CL", 4)
    chh = build_complex(A, "CHH", 4)
    F = phi(A, cl, chh)
    for m in (1, 2, 3):
        direct = rank_only(induced_map(F, m))[0]
        tgt_hom = chh.homology(m - 1)
        d_src = cl.boundary(m)
        fmat = F.maps[m]
        got = induced_rank_streamed(
            cl.dims[m], cl.dims[m - 1],
            lambda j, M=d_src: dict(M.columns[j]),
            lambda j, M=fmat: dict(M.columns[j]),
            tgt_hom)
        assert got == direct


def test_induced_map_requires_verified_chain_map():
    A = builtin_algebra("dual")
    cl = build_complex(A, "CL", 4)
    chh = build_complex(A, "CHH", 4)
    broken = phi(A, cl, chh, broken=True)
    with pytest.raises(ValueError):
        for m in (1, 2, 3):
            induced_map(broken, m)


def test_compose_maps_associates_with_matrices():
    A = builtin_algebra("dual")
    cl = build_complex(A, "CL", 4)
    chh = build_complex(A, "CHH", 4)
    clam = build_complex(A, "CLAMBDA", 4)
    F = phi(A, cl, chh)
    G = proj_I(A, chh, clam)
    GF = compose_maps(G, F)
    assert GF.shift == F.shift + G.shift
    for m in GF.maps:
        n = m - F.shift
        if m in F.maps and n in G.maps:
            assert GF.maps[m] == G.maps[n].matmul(F.maps[m])


def test_identity_cone_is_acyclic():
    C = build_complex(builtin_algebra("dual"), "CHH", 4)
    identity = {n: SparseMatrix.identity(C.dims[n]) for n in range(C.cutoff + 1)}
    mc = mapping_cone(ChainMapRep("ID", C, C, 0, identity))
    ok, wit = verify_boundary_squares(mc.cone)
    assert ok, wit
    assert [mc.cone.betti(n) for n in range(4)] == [0, 0, 0, 0]


def test_mapping_cone_requires_degree_preserving_map():
    A = builtin_algebra("dual")
    cl = build_complex(A, "CL", 4)
    chh = build_complex(A, "CHH", 4)
    with pytest.raises(ValueError):
        mapping_cone(phi(A, cl, chh))  # shift 1


def test_mapping_cone_of_cyclic_projection():
    A = builtin_algebra("dual")
    chh = build_complex(A, "CHH", 4)
    clam = build_complex(A, "CLAMBDA", 4)
    mc = mapping_cone(proj_I(A, chh, clam))
    ok, wit = verify_boundary_squares(mc.cone)
    assert ok, wit
    # cone degree n stacks the target at n on the source at n-1
    for n in range(1, 5):
        assert mc.cone.dims[n] == clam.dims[n] + chh.dims[n - 1]
    ok, _ = verify_chain_map(mc.incl, 3)
    assert ok
    ok, _ = verify_chain_map(mc.proj, 3)
    assert ok


def test_les_of_cone_exact_for_tensor_morphism():
    from leibhom.algebra import builtin_morphism
    from leibhom.chain_maps import morphism_complex_map
    f = builtin_morphism("dual_aug")
    src = build_complex(f.source, "CHH", 5)
    tgt = build_complex(f.target, "CHH", 5)
    F = morphism_complex_map(f, "CHH", src, tgt)
    mc = mapping_cone(F)
    matrices = les_of_cone(mc, 4)
    # f_*, incl_* in degrees 4..0, the connecting map in 4..1, the tail
    assert len(matrices) == 2 * 5 + 4 + 1
    nodes = exactness_check(matrices)
    assert len(nodes) == len(matrices) - 1
    for node in nodes:
        assert node["exact"], node


def test_exactness_check_flags_non_exact():
    # 0 -> Q -id-> Q -0-> Q: fails exactness at the last node
    one = SparseMatrix.identity(1)
    zero = SparseMatrix(1, 1)
    nodes = exactness_check([zero, one, zero, zero])
    assert any(not node["exact"] for node in nodes)


def test_exactness_check_ranks_each_matrix_once(monkeypatch):
    import leibhom.homology as homology
    ranked = []
    real = homology.rank_by_columns

    def counting(M):
        ranked.append(M)
        return real(M)

    monkeypatch.setattr(homology, "rank_by_columns", counting)
    # Q -0-> Q -id-> Q -0-> Q is exact at both inner nodes
    seq = [SparseMatrix(1, 1), SparseMatrix.identity(1), SparseMatrix(1, 1)]
    nodes = exactness_check(seq)
    assert [(n["rank_in"], n["nullity_out"], n["exact"]) for n in nodes] \
        == [(0, 0, True), (1, 1, True)]
    assert len(ranked) == 3 and len({id(M) for M in ranked}) == 3


def test_cone_pair_map_is_chain_map():
    from leibhom.algebra import builtin_morphism
    from leibhom.chain_maps import morphism_complex_map
    f = builtin_morphism("dual_aug")
    A, B = f.source, f.target
    chh_a = build_complex(A, "CHH", 4)
    chh_b = build_complex(B, "CHH", 4)
    clam_a = build_complex(A, "CLAMBDA", 4)
    clam_b = build_complex(B, "CLAMBDA", 4)
    Fh = morphism_complex_map(f, "CHH", chh_a, chh_b)
    Fl = morphism_complex_map(f, "CLAMBDA", clam_a, clam_b)
    mch, mcl = mapping_cone(Fh), mapping_cone(Fl)
    IA = proj_I(A, chh_a, clam_a)
    IB = proj_I(B, chh_b, clam_b)
    rel = cone_pair_map(mch, mcl, IA, IB)
    ok, wit = verify_chain_map(rel, 4)
    assert ok, wit


# -- corrupted columns: every check names the dict product's first failure --

BUMPS = [1, Fraction(1, 2), 100]


def _bumped(M, r, j, bump):
    """A copy of M with bump added to its entry (r, j)."""
    columns = [dict(c) for c in M.columns]
    col = columns[j]
    col[r] = col.get(r, 0) + bump
    if not col[r]:
        del col[r]
    return SparseMatrix(M.rows, M.cols, columns)


def _reached(M):
    """A row that a nonzero entry of M sits in."""
    return next(r for col in M.columns for r in col)


def _dict_squares_witness(C):
    for n in range(2, C.cutoff + 1):
        for j, col in enumerate(C.boundaries[n].columns):
            if C.boundaries[n - 1].apply(col):
                return False, (n, j)
    return True, None


def _dict_chain_map_witness(F, top):
    for n in F.degrees():
        if n > top or n - 1 not in F.maps:
            continue
        if not (1 <= n <= F.source.cutoff
                and 1 <= n - F.shift <= F.target.cutoff):
            continue
        dsrc = F.source.boundary(n)
        dtgt = F.target.boundary(n - F.shift)
        for j in range(dsrc.cols):
            lhs = dtgt.apply(F.maps[n].columns[j])
            rhs = F.maps[n - 1].apply(dsrc.columns[j])
            if lhs != {k: F.chain_sign * v for k, v in rhs.items()}:
                return False, (n, j)
    return True, None


@pytest.mark.parametrize("bump", BUMPS)
@pytest.mark.parametrize("degree", [2, 3])
def test_corrupted_boundary_square_witness_is_the_dict_products(bump, degree):
    C = build_complex(builtin_algebra("dual"), "CHH", 4)
    # the bumped column of d_degree is one that d_{degree+1} reaches, so the
    # square above fails if the one below does not
    boundaries = list(C.boundaries)
    boundaries[degree] = _bumped(C.boundaries[degree], 0,
                                 _reached(C.boundaries[degree + 1]), bump)
    bad = ChainComplex("CHH", C.dims, boundaries)
    want = _dict_squares_witness(bad)
    assert want[0] is False
    assert verify_boundary_squares(bad) == want


@pytest.mark.parametrize("bump", BUMPS)
@pytest.mark.parametrize("which", ["phi_3", "phi_4", "cone_proj_3"])
def test_corrupted_chain_map_witness_is_the_dict_products(bump, which):
    A = builtin_algebra("dual")
    chh = build_complex(A, "CHH", 4)
    if which == "cone_proj_3":
        F = mapping_cone(proj_I(A, chh, build_complex(A, "CLAMBDA", 4))).proj
        assert F.chain_sign == -1
    else:
        F = phi(A, build_complex(A, "CL", 4), chh)
    n = int(which[-1])
    maps = dict(F.maps)
    dtgt = F.target.boundary(n - F.shift)
    r = next(r for r, col in enumerate(dtgt.columns) if col)
    maps[n] = _bumped(F.maps[n], r, 1, bump)
    bad = ChainMapRep(F.kind, F.source, F.target, F.shift, maps, F.chain_sign)
    want = _dict_chain_map_witness(bad, 4)
    assert want[0] is False
    assert verify_chain_map(bad, 4) == want


@pytest.mark.parametrize("bump", BUMPS)
@pytest.mark.parametrize("factor", ["upper", "lower"])
def test_corrupted_streamed_d2_witness_is_the_dict_products(bump, factor,
                                                            monkeypatch):
    A = builtin_algebra("dual")
    lower = complexes.boundary_matrix(A, "P", 3)
    upper = SparseMatrix.from_columns(
        lower.cols, complexes.degree_dim(A, "P", 4),
        complexes.boundary_column_fn(A, "P", 4))
    if factor == "lower":
        lower = _bumped(lower, 0, _reached(upper), bump)
    else:
        r = next(r for r, col in enumerate(lower.columns) if col)
        upper = _bumped(upper, r, 5, bump)
    monkeypatch.setattr(complexes, "boundary_matrix",
                        lambda *args, **kwargs: lower)
    monkeypatch.setattr(complexes, "boundary_column_fn",
                        lambda *args: lambda j: dict(upper.columns[j]))
    want = next((4, j) for j, col in enumerate(upper.columns)
                if lower.apply(col))
    assert complexes.verify_d2_streamed(A, "P", 4) == want
