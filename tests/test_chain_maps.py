"""The comparison maps and the identities tying them together.

The map pipeline on one algebra A:

  proj_lie, proj_adjoint   Leibniz chains onto wedge chains (two coefficient
                           flavors), phi into Hochschild chains, epsilon and
                           theta closing two commuting squares, proj_I onto
                           the Connes quotient,
  trace / corner           Hochschild chains through matrix algebras,
  bar_pi / bar_iota        group algebra retraction onto bar chains,
  embed_cy                 Hochschild chains into the cycle-indexed complex,
  lift_p / theta_nf        cycle chains into matrix Leibniz chains and its
                           normal form inverse (composites only).
"""

from fractions import Fraction

import pytest

from leibhom import chain_maps as cmaps
from leibhom.algebra import (builtin_algebra, builtin_morphism,
                             matrix_algebra)
from leibhom.complexes import (KahlerModule, build_complex, index_tuple,
                               tuple_index)
from leibhom.homology import (compose_maps, induced_map, mapping_cone,
                              verify_chain_map)
from leibhom.linalg import SparseMatrix, rank_only
from leibhom.perms import cyclic_class, cyclic_index, cyclic_shift, symmetric_index

CUT = 4
SMALL = ("rationals", "dual", "split:2", "cyclic:2")


def cx(A, kind, cut=CUT):
    return build_complex(A, kind, cut)


def assert_chain_map(F, cut=CUT):
    ok, wit = verify_chain_map(F, cut)
    assert ok, (F.kind, wit)


def _every_builder(a, b):
    """Every comparison map, built from source complexes at cutoff a into
    target complexes at cutoff b, with the top degree lift_p allows."""
    A, Q, G = (builtin_algebra(n) for n in ("dual", "rationals", "cyclic:2"))
    MQ = matrix_algebra(Q, 2)
    km = KahlerModule(A)
    f = builtin_morphism("dual_aug")
    out = [
        (cmaps.phi(A, cx(A, "CL", a), cx(A, "CHH", b)), None),
        (cmaps.theta(A, cx(A, "CE", a), cx(A, "CLAMBDA", b)), None),
        (cmaps.epsilon(A, cx(A, "CE_ADJ", a), cx(A, "CHH", b)), None),
        (cmaps.proj_lie(A, cx(A, "CL", a), cx(A, "CE", b)), None),
        (cmaps.proj_adjoint(A, cx(A, "CL", a), cx(A, "CE_ADJ", b)), None),
        (cmaps.proj_I(A, cx(A, "CHH", a), cx(A, "CLAMBDA", b)), None),
        (cmaps.p_kahler(A, km, cx(A, "CL", a), cmaps.omega_complex(km, b)),
         None),
        (cmaps.eps_omega(km, cmaps.omega_complex(km, a), cx(A, "CHH", b)),
         None),
        (cmaps.trace(MQ, Q, cx(MQ, "CHH", a), cx(Q, "CHH", b)), None),
        (cmaps.corner(Q, MQ, cx(Q, "CHH", a), cx(MQ, "CHH", b)), None),
        (cmaps.bar_pi(G, cx(G, "CHH", a), cx(G, "BAR", b)), None),
        (cmaps.bar_iota(G, cx(G, "BAR", a), cx(G, "CHH", b)), None),
        (cmaps.embed_cy(A, cx(A, "CHH", a), cx(A, "P", b)), None),
        (cmaps.cycle_slot_bridge(A, cx(A, "P", a), cx(A, "L", b)), None),
        (cmaps.lift_p(Q, MQ, cx(Q, "P", a), cx(MQ, "CL", b)), 1),
        (cmaps.theta_nf(MQ, Q, cx(MQ, "CL", a), cx(Q, "L", b)), None),
    ]
    for kind in ("CL", "CHH", "CLAMBDA"):
        out.append((cmaps.morphism_complex_map(
            f, kind, cx(f.source, kind, a), cx(f.target, kind, b)), None))
    return out


@pytest.mark.parametrize("a,b", [(4, 2), (2, 4)])
def test_every_builder_follows_the_degree_rule(a, b):
    # components for max(0, s) <= n <= min(source cutoff, target cutoff + s),
    # and n <= N - 1 for the lift into M_N, each target x source in shape
    built = _every_builder(a, b)
    assert len(built) == 19
    for F, top in built:
        s = F.shift
        hi = min(a, b + s, a if top is None else top)
        assert sorted(F.maps) == list(range(max(0, s), hi + 1)), F.kind
        for n, mat in F.maps.items():
            assert (mat.rows, mat.cols) == (F.target.dims[n - s],
                                            F.source.dims[n]), (F.kind, n)


@pytest.mark.parametrize("name", SMALL)
def test_phi_theta_epsilon_projections_are_chain_maps(name):
    A = builtin_algebra(name)
    cl, chh = cx(A, "CL"), cx(A, "CHH")
    ce, cea = cx(A, "CE"), cx(A, "CE_ADJ")
    clam = cx(A, "CLAMBDA")
    assert_chain_map(cmaps.phi(A, cl, chh))
    assert_chain_map(cmaps.theta(A, ce, clam))
    assert_chain_map(cmaps.epsilon(A, cea, chh))
    assert_chain_map(cmaps.proj_lie(A, cl, ce))
    assert_chain_map(cmaps.proj_adjoint(A, cl, cea))
    assert_chain_map(cmaps.proj_I(A, chh, clam))


@pytest.mark.parametrize("name", ("dual", "s3"))
def test_antisymmetrization_factors_through_wedge(name):
    # epsilon o proj_adjoint = phi, degree by degree
    A = builtin_algebra(name)
    cl, chh, cea = cx(A, "CL"), cx(A, "CHH"), cx(A, "CE_ADJ")
    ph = cmaps.phi(A, cl, chh)
    comp = compose_maps(cmaps.epsilon(A, cea, chh),
                        cmaps.proj_adjoint(A, cl, cea))
    for m in range(1, CUT + 1):
        assert comp.maps[m] == ph.maps[m], m


@pytest.mark.parametrize("name", ("dual", "s3"))
def test_cyclic_square_commutes(name):
    # proj_I o phi = theta o proj_lie
    A = builtin_algebra(name)
    cl, chh = cx(A, "CL"), cx(A, "CHH")
    ce, clam = cx(A, "CE"), cx(A, "CLAMBDA")
    left = compose_maps(cmaps.proj_I(A, chh, clam), cmaps.phi(A, cl, chh))
    right = compose_maps(cmaps.theta(A, ce, clam), cmaps.proj_lie(A, cl, ce))
    for m in range(1, CUT + 1):
        assert left.maps[m] == right.maps[m], m


def test_phi_explicit_degree_one():
    # phi_1 sends x to the Hochschild chain 1 (x) x - wrapping convention:
    # on the base-field pivot CL_1 = A it is x |-> 1 tensor x
    A = builtin_algebra("dual")
    ph = cmaps.phi(A, cx(A, "CL"), cx(A, "CHH"))
    d = A.dim
    for x in range(d):
        col = ph.maps[1].columns[x]
        assert col == {tuple_index((0, x), d): Fraction(1)}


def test_degree_zero_isomorphisms_dual():
    A = builtin_algebra("dual")
    cl, chh = cx(A, "CL"), cx(A, "CHH")
    ce, clam = cx(A, "CE"), cx(A, "CLAMBDA")
    cea = cx(A, "CE_ADJ")
    assert cl.betti(1) == chh.betti(0) == clam.betti(0) == ce.betti(1) == 2
    for F, m in ((cmaps.phi(A, cl, chh), 1),
                 (cmaps.proj_I(A, chh, clam), 0),
                 (cmaps.theta(A, ce, clam), 1),
                 (cmaps.proj_lie(A, cl, ce), 1)):
        mat = induced_map(F, m)
        assert mat.rows == mat.cols == rank_only(mat) == 2, F.kind


def test_kahler_square_on_presented_commutative():
    A = builtin_algebra("truncated_poly:3")
    km = KahlerModule(A)
    cl, chh = cx(A, "CL"), cx(A, "CHH")
    om = cmaps.omega_complex(km, CUT)
    assert list(om.dims) == [3, 2, 0, 0, 0]
    p = cmaps.p_kahler(A, km, cl, om)
    eo = cmaps.eps_omega(km, om, chh)
    assert_chain_map(p)
    assert_chain_map(eo)
    # p is degree-wise surjective onto the forms
    for m in range(1, CUT + 1):
        assert rank_only(p.maps[m]) == om.dims[m - 1]
    # the square against phi commutes after passing to homology
    ph = cmaps.phi(A, cl, chh)
    for m in range(1, CUT):
        n = m - 1
        diff = ph.maps[m] - eo.maps[n].matmul(p.maps[m])
        hom = chh.homology(n)
        for j in range(diff.cols):
            col = dict(diff.columns[j])
            if col:
                assert hom.is_boundary(col), (m, j)


def test_trace_corner_identity_matrix_size_2():
    for name in ("rationals", "dual"):
        A = builtin_algebra(name)
        MA = matrix_algebra(A, 2)
        chh_a = cx(A, "CHH", 3)
        chh_ma = cx(MA, "CHH", 3)
        tr = cmaps.trace(MA, A, chh_ma, chh_a)
        co = cmaps.corner(A, MA, chh_a, chh_ma)
        assert_chain_map(tr, 3)
        assert_chain_map(co, 3)
        comp = compose_maps(tr, co)
        for m in range(3 + 1):
            assert comp.maps[m] == SparseMatrix.identity(chh_a.dims[m]), m
        # and on homology the composite induces the identity
        for n in range(3):
            mat = induced_map(comp, n)
            assert mat == SparseMatrix.identity(chh_a.betti(n))


def test_trace_phi_column_fn_matches_composite():
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 2)
    cl_ma = cx(MA, "CL", 3)
    chh_ma = cx(MA, "CHH", 3)
    chh_a = cx(A, "CHH", 3)
    comp = compose_maps(cmaps.trace(MA, A, chh_ma, chh_a),
                        cmaps.phi(MA, cl_ma, chh_ma))
    for m in (1, 2, 3):
        fn = cmaps.tr_phi_column_fn(MA, A, m)
        for j in range(cl_ma.dims[m]):
            assert fn(j) == dict(comp.maps[m].columns[j]), (m, j)


def test_bar_retraction():
    for name in ("cyclic:2", "cyclic:3", "s3"):
        G = builtin_algebra(name)
        chh = cx(G, "CHH")
        bar = cx(G, "BAR")
        pi = cmaps.bar_pi(G, chh, bar)
        iota = cmaps.bar_iota(G, bar, chh)
        assert_chain_map(pi)
        assert_chain_map(iota)
        comp = compose_maps(pi, iota)
        for m in range(CUT + 1):
            assert comp.maps[m] == SparseMatrix.identity(bar.dims[m]), (name, m)
        # rational group homology of a finite group vanishes positively
        assert [bar.betti(n) for n in range(CUT)] == [1, 0, 0, 0]


def test_cycle_complex_embedding_computes_hochschild():
    for name in ("rationals", "dual", "split:2"):
        A = builtin_algebra(name)
        chh = cx(A, "CHH")
        P = cx(A, "P")
        emb = cmaps.embed_cy(A, chh, P)
        assert_chain_map(emb)
        for n in range(CUT):
            assert P.betti(n) == chh.betti(n), (name, n)
            mat = induced_map(emb, n)
            assert rank_only(mat) == mat.rows == mat.cols, (name, n)


def test_cycle_complex_of_rationals_acyclic_above_zero():
    P = cx(builtin_algebra("rationals"), "P", 5)
    assert list(P.dims) == [1, 1, 2, 6, 24, 120]
    assert [P.betti(n) for n in range(5)] == [1, 0, 0, 0, 0]


def test_cycle_slot_bridge_is_chain_map():
    A = builtin_algebra("dual")
    P = cx(A, "P", 3)
    L = cx(A, "L", 4)
    bridge = cmaps.cycle_slot_bridge(A, P, L)
    assert_chain_map(bridge, 3)


def test_lift_off_diagonal_units():
    # tau_2 tensor (a, b) sits at degree 1 and lands on E_12[a] tensor E_21[b]
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 3)
    P = cx(A, "P", 2)
    cl_ma = cx(MA, "CL", 3)
    lift = cmaps.lift_p(A, MA, P, cl_ma)
    d = A.dim
    idx = MA.matrix_meta["index"]
    t2 = cyclic_index(2)[cyclic_shift(2)]
    for a in range(d):
        for b in range(d):
            j = t2 * d * d + a * d + b
            want = {idx[(1, 2, a)] * MA.dim + idx[(2, 1, b)]: Fraction(1)}
            assert dict(lift.maps[1].columns[j]) == want


def test_trace_phi_lift_is_identity_on_standard_cycles():
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 3)
    P = cx(A, "P", 2)
    cl_ma = cx(MA, "CL", 3)
    lift = cmaps.lift_p(A, MA, P, cl_ma)
    d = A.dim
    trphi = cmaps.tr_phi_column_fn(MA, A, 3)
    t3 = cyclic_index(3)[cyclic_shift(3)]
    for t_i in range(d ** 3):
        col = lift.maps[2].columns[t3 * d ** 3 + t_i]
        acc = {}
        for clj, coeff in col.items():
            for k, v in trphi(clj).items():
                acc[k] = acc.get(k, Fraction(0)) + coeff * v
        acc = {k: v for k, v in acc.items() if v}
        assert acc == {t_i: Fraction(1)}, t_i


def test_normal_form_inverts_lift():
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 3)
    P = cx(A, "P", 2)
    cl_ma = cx(MA, "CL", 3)
    L = cx(A, "L", 3)
    lift = cmaps.lift_p(A, MA, P, cl_ma)
    nf = cmaps.theta_nf(MA, A, cl_ma, L)
    comp = compose_maps(nf, lift)
    d = A.dim
    sidx = symmetric_index(3)
    for j in range(P.dims[2]):
        s_i, t_i = divmod(j, d ** 3)
        sigma = cyclic_class(3)[s_i]
        slot = cmaps._slot_tuple(sigma, index_tuple(t_i, d, 3))
        want = {sidx[sigma] * d ** 3 + tuple_index(slot, d): Fraction(1)}
        assert dict(comp.maps[2].columns[j]) == want, j


def test_normal_form_alone_is_not_a_chain_map():
    # the slot reindexing ignores the boundary's label bookkeeping, so the
    # raw normal form must fail the chain map test somewhere
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 3)
    cl_ma = cx(MA, "CL", 3)
    L = cx(A, "L", 3)
    nf = cmaps.theta_nf(MA, A, cl_ma, L)
    ok, wit = verify_chain_map(nf, 3)
    assert not ok and wit is not None


def test_morphism_tensor_extension():
    f = builtin_morphism("dual_aug")
    for kind in ("CL", "CHH", "CLAMBDA"):
        src = build_complex(f.source, kind, CUT)
        tgt = build_complex(f.target, kind, CUT)
        F = cmaps.morphism_complex_map(f, kind, src, tgt)
        assert_chain_map(F)
        mc = mapping_cone(F)
        ok, _ = verify_chain_map(mc.incl, CUT - 1)
        assert ok


def test_morphism_tensor_column_fn_matches_matrix():
    # the column fn counts raw tensor factors: CHH degree n has n+1 of them
    f = builtin_morphism("trunc3_aug")
    src = build_complex(f.source, "CHH", 3)
    tgt = build_complex(f.target, "CHH", 3)
    F = cmaps.morphism_complex_map(f, "CHH", src, tgt)
    for n in (0, 1, 2, 3):
        fn = cmaps.morphism_tensor_column_fn(f, n + 1)
        for j in range(src.dims[n]):
            assert fn(j) == dict(F.maps[n].columns[j]), (n, j)


def test_identity_morphism_cone_is_acyclic():
    f = builtin_morphism("id_dual")
    src = build_complex(f.source, "CHH", CUT)
    F = cmaps.morphism_complex_map(f, "CHH", src, src)
    mc = mapping_cone(F)
    assert [mc.cone.betti(n) for n in range(CUT)] == [0] * CUT


def test_hochschild_of_dual_matches_periodic_resolution():
    """Independent smallness oracle for CHH(dual).

    Q[x]/x^2 has the 2-periodic free bimodule resolution with differentials
    alternating multiplication by (x tensor 1 - 1 tensor x) and
    (x tensor 1 + 1 tensor x); tensoring down to A gives the 2-term complex
    A <- A <- A <- ... with maps 0 and 2x alternating. Its homology is
    (2, 1, 1, 1, ...), which the simplicial complex must reproduce.
    """
    from leibhom.homology import ChainComplex
    A = builtin_algebra("dual")
    cut = 5
    dims = [2] * (cut + 1)
    boundaries = [None]
    for n in range(1, cut + 1):
        if n % 2 == 1:
            boundaries.append(SparseMatrix(2, 2))
        else:
            boundaries.append(SparseMatrix.from_entries(
                2, 2, [(1, 0, Fraction(2))]))
    per = ChainComplex("PERIODIC", dims, boundaries)
    chh = cx(A, "CHH", cut)
    want = [per.betti(n) for n in range(cut)]
    assert want == [2, 1, 1, 1, 1]
    assert [chh.betti(n) for n in range(cut)] == want
