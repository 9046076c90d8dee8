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
                           normal form inverse (composites only; theta_nf
                           is a column function, theta_nf_column_fn).
"""

import hashlib
import os
from fractions import Fraction

import pytest

from leibhom import chain_maps as cmaps
from leibhom.algebra import (builtin_algebra, builtin_morphism,
                             matrix_algebra)
from leibhom.complexes import (KahlerModule, build_complex, degree_dim,
                               index_tuple, tuple_index)
from leibhom.homology import (ChainComplex, compose_maps, induced_map,
                              mapping_cone, verify_chain_map)
from leibhom.linalg import SparseMatrix, rank_only
from leibhom.perms import cyclic_class, cyclic_index, cyclic_shift, symmetric_index

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CUT = 4
SMALL = ("rationals", "dual", "split:2", "cyclic:2")


def cx(A, kind, cut=CUT):
    return build_complex(A, kind, cut)


def normal_form(MA, A, cl_ma, l_a):
    """The normal form theta_nf as a map CL(M_N(A)) -> L(A), built from its
    column function."""
    return cmaps._chain_map("NORMALIZATION", cl_ma, l_a, 0, cmaps._per_degree(
        lambda n: cmaps.theta_nf_column_fn(MA, A, n)))


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
        (normal_form(MQ, Q, cx(MQ, "CL", a), cx(Q, "L", b)), None),
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
        assert mat.rows == mat.cols == rank_only(mat)[0] == 2, F.kind


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
        assert rank_only(p.maps[m])[0] == om.dims[m - 1]
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
            assert rank_only(mat)[0] == mat.rows == mat.cols, (name, n)


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
    nf = normal_form(MA, A, cl_ma, L)
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
    nf = normal_form(MA, A, cl_ma, L)
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


def test_tracer_counts_the_streamed_column_closures(monkeypatch):
    # perfbench's tracer counts chain_maps.columns_generated through these
    # two factory names; a rename would leave that counter at zero
    monkeypatch.syspath_prepend(os.path.join(REPO, "perfbench"))
    import tracer

    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 2)
    f = builtin_morphism("dual_aug")
    originals = (cmaps.tr_phi_column_fn, cmaps.morphism_tensor_column_fn)
    tr = tracer.Tracer().install()
    try:
        assert cmaps.tr_phi_column_fn(MA, A, 1)(0) == {0: 1}
        assert cmaps.morphism_tensor_column_fn(f, 2)(0) == {0: 1}
    finally:
        tr.uninstall()
    assert tr.counts["chain_maps.columns_generated"] == 2
    assert (cmaps.tr_phi_column_fn, cmaps.morphism_tensor_column_fn) == originals


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


# ---------------------------------------------------------------------------
# digest pins of the antisymmetrization maps, column by column

def columns_digest(count, col):
    """sha256 over col(0..count-1), entries sorted, values as reduced p/q
    (the form of test_complexes.columns_digest)."""
    h = hashlib.sha256()
    for j in range(count):
        h.update(("%d:%s;" % (j, ",".join(
            "%d=%s" % (r, Fraction(v)) for r, v in sorted(col(j).items())))).encode())
    return h.hexdigest()


def shell(A, kind, cutoff):
    """A complex with the dims of `kind` and zero boundaries: enough to build
    a map's matrices without eliminating or generating any boundary."""
    dims = [degree_dim(A, kind, n) for n in range(cutoff + 1)]
    return ChainComplex(kind, dims, [None] + [
        SparseMatrix(dims[n - 1], dims[n]) for n in range(1, cutoff + 1)])


def antisymmetrization(A, which, top):
    if which == "PHI":
        return cmaps.phi(A, shell(A, "CL", top), shell(A, "CHH", top - 1))
    if which == "PHI_BROKEN":
        return cmaps.phi(A, shell(A, "CL", top), shell(A, "CHH", top - 1),
                         broken=True)
    if which == "THETA":
        return cmaps.theta(A, shell(A, "CE", top), shell(A, "CLAMBDA", top - 1))
    return cmaps.epsilon(A, shell(A, "CE_ADJ", top), shell(A, "CHH", top))


# one digest per source degree, from the lowest degree the map has; the
# M_2(dual) entry is tr_phi_column_fn for m = 1..4
PINNED_MAP_COLUMNS = {
    ("dual", "PHI"): (
        "65fb0a14bde5cc3703e56caea4088d1762e7c448a2a5a5346d9bad0bd3290955",
        "6d95cc6cd778a311ca67bcec7b596979475b28ed99fea81b687078cfabb0df67",
        "5a50a893c4972e35f3febd40ae39293446a01f68371be88bcb31e51789b64112",
        "c4be00dd70a06398dea35c33ef0fb319f0c632e175b892b01cc5013ecae288df",
        "7a4e2cdb5edacd966c45bad5a576a3599d6b39c62b5833ae5f57c2a4b2f56874",
    ),
    ("cyclic:3", "PHI"): (
        "6a122996988796aab4d0e2472e3020fd8364b6d89838d8522bdcd34ff70dfcc2",
        "e947cf53d7b1bef525a75f5eb7e6c7c9c03e2aadd27f941b4981b0be6693e520",
        "adb95531df6d9cce178e5e36047558b36c0f8fe0b2e4dc7be9b66c3fea6aaa39",
        "fb6051f46dcbf4bba6e384628f8605eb0cda78a7e442b2b0f91621d9a6adf95a",
        "b59906ee5bdeec83b9ec603ea6e8715aac12daee2b24bc4657ce0dc33457e8af",
    ),
    ("s3", "PHI"): (
        "5edcd0810f42dd653a421b10badbf4890eb98addf60d92d37fda094ace377bd3",
        "d112c4b7b441c964ab9aaed0a835c0fd680527b0a0d85995fe33df41ea3ee2c4",
        "ff22baaf0e89c758c2e69f1b67be5098c5219795c08ae7058089b9f13b7cb91e",
        "7161fbcc1ace561dd9fb77e2d692ab5477cc584761b0f0988ff18720c75a91fc",
    ),
    ("dual", "PHI_BROKEN"): (
        "65fb0a14bde5cc3703e56caea4088d1762e7c448a2a5a5346d9bad0bd3290955",
        "6d95cc6cd778a311ca67bcec7b596979475b28ed99fea81b687078cfabb0df67",
        "630d4c8531b2c715f0b3ffe228b6f3c4935c6f8160f961e122303bd0c0757940",
        "584745dfb7aaf46fd2fb2dbc2a2626f56665feef0bbfd17d06de5514ac200a82",
        "55740b1d85f50c34a50116606704eb50451d7bf5637bb38db864c97ef997a8c3",
    ),
    ("cyclic:3", "PHI_BROKEN"): (
        "6a122996988796aab4d0e2472e3020fd8364b6d89838d8522bdcd34ff70dfcc2",
        "e947cf53d7b1bef525a75f5eb7e6c7c9c03e2aadd27f941b4981b0be6693e520",
        "8047c74620fa52a408201cc985330f43245200617108a653f94a1918f0fbddda",
        "90989f401a62283c239d04671e161235455a4c48ad2858d5c87252ebadbd0be7",
        "88f4aa4c51e7d18033d5eeb8cfcfb3cd5f8ab3d6f090b588b079295438db672d",
    ),
    ("s3", "PHI_BROKEN"): (
        "5edcd0810f42dd653a421b10badbf4890eb98addf60d92d37fda094ace377bd3",
        "d112c4b7b441c964ab9aaed0a835c0fd680527b0a0d85995fe33df41ea3ee2c4",
        "589e8c13e132647e5056c7679c98aaaea10a48f991f10acdfdda08b75cae4913",
        "90ac5bad2b82b48c21d981c2d5e0a024077d22fb090c46da7039021ff05d2456",
    ),
    ("dual", "THETA"): (
        "65fb0a14bde5cc3703e56caea4088d1762e7c448a2a5a5346d9bad0bd3290955",
        "26a1c1b0b8d748aaf0ae71675b12731e6446a0414564e775ff815c325b663d16",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("cyclic:3", "THETA"): (
        "6a122996988796aab4d0e2472e3020fd8364b6d89838d8522bdcd34ff70dfcc2",
        "6a122996988796aab4d0e2472e3020fd8364b6d89838d8522bdcd34ff70dfcc2",
        "a2aad4477544b78e953531e0139b7393865372e0ec8ddc79b4196318168bdf40",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("s3", "THETA"): (
        "5edcd0810f42dd653a421b10badbf4890eb98addf60d92d37fda094ace377bd3",
        "fb5d69375c53dadb0e18b91c90117d6937ebb2feac65afc5db98001f37824f20",
        "cf734f2287c38ff28b34c53591d8f0f6354f28f77c9dcd29d4b929e49bf557a4",
        "1d828c57620c7a695e69b9cb504f7f11f6e00d2b575eb1017cf621cc61765063",
    ),
    ("dual", "EPSILON"): (
        "65fb0a14bde5cc3703e56caea4088d1762e7c448a2a5a5346d9bad0bd3290955",
        "6d95cc6cd778a311ca67bcec7b596979475b28ed99fea81b687078cfabb0df67",
        "63cc67616b8023fa5cacd725ffab3ff4d23e56a2264854298ebbfff1275b90d1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("cyclic:3", "EPSILON"): (
        "6a122996988796aab4d0e2472e3020fd8364b6d89838d8522bdcd34ff70dfcc2",
        "e947cf53d7b1bef525a75f5eb7e6c7c9c03e2aadd27f941b4981b0be6693e520",
        "96ed863589283ad90a3a7dddeba8cfcbe5d1466bdc8e1786eaec9eb2ef572a56",
        "dac1873fe30e5d6f6c9c02e8d43fcea394a0e1a3ded56e86d881a944b76734de",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    ("s3", "EPSILON"): (
        "5edcd0810f42dd653a421b10badbf4890eb98addf60d92d37fda094ace377bd3",
        "d112c4b7b441c964ab9aaed0a835c0fd680527b0a0d85995fe33df41ea3ee2c4",
        "1b88642296caeae4bf1d378e7d78ca14e1a4918a0fc53a2deb4bf6e659c9db61",
        "7223ad60636e911bf2aa7ee6705a1fb323db49072cc336bca4fb447bde2be726",
        "7f9bb03b3da200571a3096a521bcb8caf43d165cd4bc955bfddd9badedcca5d7",
    ),
    ("M_2(dual)", "TR_PHI"): (
        "ab0cc5c35e1d67e837fcb1cdfd7d7e59195aa37459669373b6b3a6b6f6937d72",
        "2bcdbd018b0921fde736212c17580c85707652e9ae18d78eba30a608b5117c68",
        "ccf0c1658a7f8b6951f2a90d1b6e867f3dc115574405021dcfafdc26b413e4e4",
        "750c087ee0318be70b9dfa1deea4be87953a1b5dcef39b48fcda3e767df7cc43",
    ),
}


@pytest.mark.parametrize("name,top", [("dual", 5), ("cyclic:3", 5), ("s3", 4)])
@pytest.mark.parametrize("which", ["PHI", "PHI_BROKEN", "THETA", "EPSILON"])
def test_antisymmetrization_columns_are_pinned(name, top, which):
    F = antisymmetrization(builtin_algebra(name), which, top)
    got = tuple(columns_digest(mat.cols, mat.columns.__getitem__)
                for _, mat in sorted(F.maps.items()))
    assert got == PINNED_MAP_COLUMNS[name, which]


def test_trace_phi_stream_columns_are_pinned():
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 2)
    got = tuple(columns_digest(MA.dim ** m, cmaps.tr_phi_column_fn(MA, A, m))
                for m in range(1, 5))
    assert got == PINNED_MAP_COLUMNS["M_2(dual)", "TR_PHI"]
