"""Acceptance gate: ten criteria, each a single test, all exact over Q.

Every assertion is zero tolerance: equalities of sparse fraction matrices,
exact betti numbers, exact exit codes and byte-identical artifacts. One
pass/fail line per criterion comes from running this file with pytest -v;
each test also prints its own verdict line for plain runs.
"""

import json
import os
import subprocess
import sys

from leibhom import chain_maps as cmaps
from leibhom.algebra import (BUILTIN_NAMES, builtin_algebra,
                             builtin_morphism, matrix_algebra,
                             matrix_morphism)
from leibhom.complexes import (Session, boundary_column_fn, build_complex,
                               degree_dim, verify_d2_streamed)
from leibhom.homology import (compose_maps, cone_pair_map, exactness_check,
                              induced_map, induced_rank_streamed,
                              les_of_cone, mapping_cone,
                              verify_boundary_squares, verify_chain_map)
from leibhom.linalg import SparseMatrix, rank_only
from leibhom.perms import cyclic_class, cyclic_shift, face_cyclic

BIG = 200000
GROUPS = ("cyclic:2", "cyclic:3", "s3")
COMMUTATIVE = ("rationals", "dual", "truncated_poly:3", "split:2",
               "cyclic:2", "cyclic:3")
MORITA = ("dual", "split:2", "cyclic:2")

_here = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(_here)


def _say(line):
    print(line)


def _kinds_for(A):
    kinds = ["CL", "CHH", "CLAMBDA", "CE", "CE_ADJ", "L", "P"]
    if A.group_meta is not None:
        kinds.append("BAR")
    return kinds


def test_criterion_01_boundary_squares_vanish_everywhere():
    """d o d = 0 for every complex kind over every built-in algebra at
    cutoff 4, and over size-2 matrix extensions at cutoff 3; oversized
    degrees are streamed column by column, never skipped."""
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        for kind in _kinds_for(A):
            if max(degree_dim(A, kind, n) for n in range(5)) > 100000:
                for n in range(2, 5):
                    wit = verify_d2_streamed(A, kind, n, Session(max_dim=BIG))
                    assert wit is None, (name, kind, wit)
            else:
                C = build_complex(A, kind, 4)
                ok, wit = verify_boundary_squares(C)
                assert ok, (name, kind, wit)
    for base, kinds in (("rationals", ("CL", "CHH", "CLAMBDA", "CE",
                                       "CE_ADJ", "L", "P")),
                        ("dual", ("CL", "CHH", "CLAMBDA"))):
        MA = matrix_algebra(builtin_algebra(base), 2)
        for kind in kinds:
            ok, wit = verify_boundary_squares(build_complex(MA, kind, 3))
            assert ok, (base, kind, wit)
    _say("criterion 1 boundary_squares_vanish_everywhere: PASS")


def test_criterion_02_phi_is_a_chain_map():
    """The antisymmetrization map intertwines the Leibniz and Hochschild
    boundaries in every degree through 4 on every built-in algebra."""
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        F = cmaps.phi(A, build_complex(A, "CL", 4), build_complex(A, "CHH", 4))
        ok, wit = verify_chain_map(F, 4)
        assert ok, (name, wit)
    _say("criterion 2 phi_is_a_chain_map: PASS")


def test_criterion_03_comparison_squares_commute_chainwise():
    """epsilon o proj_adjoint = phi and proj_I o phi = theta o proj_lie as
    matrix identities in every degree through 4 on every built-in algebra."""
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        cl = build_complex(A, "CL", 4)
        chh = build_complex(A, "CHH", 4)
        ce = build_complex(A, "CE", 4)
        cea = build_complex(A, "CE_ADJ", 4)
        clam = build_complex(A, "CLAMBDA", 4)
        ph = cmaps.phi(A, cl, chh)
        left = compose_maps(cmaps.epsilon(A, cea, chh),
                            cmaps.proj_adjoint(A, cl, cea))
        for m in range(1, 5):
            assert left.maps[m] == ph.maps[m], (name, "epsilon", m)
        sq1 = compose_maps(cmaps.proj_I(A, chh, clam), ph)
        sq2 = compose_maps(cmaps.theta(A, ce, clam),
                           cmaps.proj_lie(A, cl, ce))
        for m in range(1, 5):
            assert sq1.maps[m] == sq2.maps[m], (name, "cyclic", m)
    _say("criterion 3 comparison_squares_commute_chainwise: PASS")


def test_criterion_04_degree_zero_isomorphisms():
    """The four induced maps are bijections between the degree-zero homology
    groups, which all share one betti number, on every built-in algebra."""
    for name in BUILTIN_NAMES:
        A = builtin_algebra(name)
        cl = build_complex(A, "CL", 4)
        chh = build_complex(A, "CHH", 4)
        ce = build_complex(A, "CE", 4)
        clam = build_complex(A, "CLAMBDA", 4)
        b = cl.betti(1)
        assert b == chh.betti(0) == clam.betti(0) == ce.betti(1), name
        for F, m in ((cmaps.phi(A, cl, chh), 1),
                     (cmaps.proj_I(A, chh, clam), 0),
                     (cmaps.theta(A, ce, clam), 1),
                     (cmaps.proj_lie(A, cl, ce), 1)):
            mat = induced_map(F, m)
            assert mat.rows == mat.cols == b == rank_only(mat), (name, F.kind)
    _say("criterion 4 degree_zero_isomorphisms: PASS")


def test_criterion_05_commutative_collapse():
    """Over a commutative algebra the Leibniz boundary is the zero map and
    the degree-n betti number is dim(A)^n, checked through degree 3."""
    for name in COMMUTATIVE:
        A = builtin_algebra(name)
        cl = build_complex(A, "CL", 4)
        for n in range(1, 5):
            assert cl.boundary(n).is_zero(), (name, n)
        for n in range(4):
            want = 1 if n == 0 else A.dim ** n
            assert cl.betti(n) == want, (name, n)
    _say("criterion 5 commutative_collapse: PASS")


def test_criterion_06_morita_trace():
    """trace o corner is the identity on Hochschild chains (hence on HH_n,
    n <= 2) at matrix sizes 2 and 3, and the composite trace o phi from
    matrix Leibniz chains hits all of HH_n, n <= 2, at size 3, verified by
    streamed ranks."""
    for name in MORITA:
        A = builtin_algebra(name)
        chh_a = build_complex(A, "CHH", 3)
        for N in (2, 3):
            MA = matrix_algebra(A, N)
            chh_ma = build_complex(MA, "CHH", 3, Session(max_dim=BIG))
            tr = cmaps.trace(MA, A, chh_ma, chh_a)
            co = cmaps.corner(A, MA, chh_a, chh_ma)
            ok, wit = verify_chain_map(tr, 3)
            assert ok, (name, N, "trace", wit)
            ok, wit = verify_chain_map(co, 3)
            assert ok, (name, N, "corner", wit)
            comp = compose_maps(tr, co)
            for m in range(4):
                assert comp.maps[m] == SparseMatrix.identity(chh_a.dims[m]), \
                    (name, N, m)
            for n in range(3):
                assert induced_map(comp, n) == \
                    SparseMatrix.identity(chh_a.betti(n)), (name, N, n)
        GA = matrix_algebra(A, 3)
        for n in range(3):
            b = chh_a.betti(n)
            if b == 0:
                continue
            m = n + 1
            r, _ = induced_rank_streamed(
                degree_dim(GA, "CL", m), degree_dim(GA, "CL", m - 1),
                boundary_column_fn(GA, "CL", m),
                cmaps.tr_phi_column_fn(GA, A, m),
                chh_a.homology(n), True)
            assert r >= b, (name, n, r, b)
    _say("criterion 6 morita_trace: PASS")


def test_criterion_07_group_homology_retract():
    """bar_pi o bar_iota is the identity on bar chains through degree 4, and
    the full composite bar_pi o trace o phi hits all of the rational group
    homology (Q, 0, 0) for C_2, C_3 and S_3."""
    for name in GROUPS:
        G = builtin_algebra(name)
        chh = build_complex(G, "CHH", 4)
        bar = build_complex(G, "BAR", 4)
        pi = cmaps.bar_pi(G, chh, bar)
        iota = cmaps.bar_iota(G, bar, chh)
        comp = compose_maps(pi, iota)
        for m in range(5):
            assert comp.maps[m] == SparseMatrix.identity(bar.dims[m]), (name, m)
        assert [bar.betti(n) for n in range(3)] == [1, 0, 0], name
        MG = matrix_algebra(G, 2)
        for n in range(3):
            b = bar.betti(n)
            if b == 0:
                continue
            m = n + 1
            trphi = cmaps.tr_phi_column_fn(MG, G, m)
            pim = pi.maps[n]

            def mcol(j, trphi=trphi, pim=pim):
                return pim.apply(trphi(j))

            r, _ = induced_rank_streamed(
                degree_dim(MG, "CL", m), degree_dim(MG, "CL", m - 1),
                boundary_column_fn(MG, "CL", m), mcol,
                bar.homology(n), True)
            assert r >= b, (name, n, r, b)
    _say("criterion 7 group_homology_retract: PASS")


def test_criterion_08_relative_sequences():
    """For each built-in morphism with nilpotent kernel and the identity
    control: the long exact sequence of the cone is exact at every node for
    all three cyclic-flavor complexes, the relative cyclic projection is
    degreewise surjective on cone homology, and at matrix size 3 the
    streamed relative composite I o trace o phi still surjects."""
    cases = {"trunc3_aug": (2, 0, 2, 0), "dual_aug": (1, 0, 1, 0),
             "id_dual": (0, 0, 0, 0)}
    for mname, clam_cone_betti in cases.items():
        f = builtin_morphism(mname)
        A, B = f.source, f.target
        cones = {}
        for kind in ("CL", "CHH", "CLAMBDA"):
            src = build_complex(A, kind, 5)
            tgt = build_complex(B, kind, 5)
            F = cmaps.morphism_complex_map(f, kind, src, tgt)
            ok, wit = verify_chain_map(F, 5)
            assert ok, (mname, kind, wit)
            mc = mapping_cone(F)
            cones[kind] = mc
            mats, labels = les_of_cone(mc, 4)
            for node, label in zip(exactness_check(mats), labels[1:]):
                assert node["exact"], (mname, kind, label, node)
        chh_s = build_complex(A, "CHH", 5)
        chh_t = build_complex(B, "CHH", 5)
        cla_s = build_complex(A, "CLAMBDA", 5)
        cla_t = build_complex(B, "CLAMBDA", 5)
        IA = cmaps.proj_I(A, chh_s, cla_s)
        IB = cmaps.proj_I(B, chh_t, cla_t)
        rel = cone_pair_map(cones["CHH"], cones["CLAMBDA"], IA, IB)
        ok, wit = verify_chain_map(rel, 5)
        assert ok, (mname, wit)
        for m in range(1, 5):
            b = cones["CLAMBDA"].cone.betti(m)
            assert b == clam_cone_betti[m - 1], (mname, m)
            assert rank_only(induced_map(rel, m)) == b, (mname, m)
        if mname == "id_dual":
            continue
        # streamed relative surjectivity of I o trace o phi at matrix size 3
        glf = matrix_morphism(f, 3)
        GA, GB = glf.source, glf.target
        for n in (0, 1, 2):
            m = n + 2
            tb = cones["CLAMBDA"].cone.betti(m - 1)
            if tb == 0:
                continue
            hom = cones["CLAMBDA"].cone.homology(m - 1)
            cb = degree_dim(GA, "CL", m - 1)
            cpb = degree_dim(GB, "CL", m)
            off_b = degree_dim(GA, "CL", m - 2)
            da = boundary_column_fn(GA, "CL", m - 1)
            db = boundary_column_fn(GB, "CL", m)
            fA = cmaps.tr_phi_column_fn(GA, A, m - 1)
            fB = cmaps.tr_phi_column_fn(GB, B, m)
            gf = cmaps.morphism_tensor_column_fn(glf, m - 1)
            ia, ib = IA.maps[m - 2], IB.maps[m - 1]
            off_t = cla_s.dims[m - 2]

            def bcol(j):
                if j < cb:
                    vec = {i: -v for i, v in da(j).items()}
                    for i, v in gf(j).items():
                        vec[off_b + i] = vec.get(off_b + i, 0) + v
                    return {k: v for k, v in vec.items() if v}
                return {off_b + i: v for i, v in db(j - cb).items()}

            def mcol(j):
                if j < cb:
                    return ia.apply(fA(j))
                return {off_t + i: v for i, v in ib.apply(fB(j - cb)).items()}

            split = off_b + degree_dim(GB, "CL", m - 1)
            r, _ = induced_rank_streamed(cb + cpb, split, bcol, mcol, hom,
                                         True)
            assert r >= tb, (mname, n, r, tb)
    _say("criterion 8 relative_sequences: PASS")


def test_criterion_09_cycle_complex_model():
    """The cycle-indexed complex: faces are presimplicial and fix the
    standard cycles, the complex over Q is acyclic above degree zero, and
    the embedding from Hochschild chains is a chain map inducing
    isomorphisms through degree 3 on Q, the dual numbers, and Q x Q."""
    for n in range(3, 6):
        for p in cyclic_class(n):
            for j in range(1, n):
                for i in range(j):
                    assert face_cyclic(face_cyclic(p, j), i) == \
                        face_cyclic(face_cyclic(p, i), j - 1), (p, i, j)
        t = cyclic_shift(n)
        below = cyclic_shift(n - 1)
        for i in range(n):
            assert face_cyclic(t, i) == below, (n, i)
    P0 = build_complex(builtin_algebra("rationals"), "P", 5)
    assert [P0.betti(n) for n in range(5)] == [1, 0, 0, 0, 0]
    for name in ("rationals", "dual", "split:2"):
        A = builtin_algebra(name)
        chh = build_complex(A, "CHH", 4)
        P = build_complex(A, "P", 4)
        emb = cmaps.embed_cy(A, chh, P)
        ok, wit = verify_chain_map(emb, 4)
        assert ok, (name, wit)
        for n in range(4):
            mat = induced_map(emb, n)
            assert mat.rows == mat.cols == rank_only(mat), (name, n)
            assert P.betti(n) == chh.betti(n), (name, n)
    # dual-numbers cross-check: the 2-periodic resolution A <-0- A <-2x- A ...
    from fractions import Fraction
    from leibhom.homology import ChainComplex
    dims = [2] * 5
    bnds = [None] + [SparseMatrix(2, 2) if n % 2 else
                     SparseMatrix.from_entries(2, 2, [(1, 0, Fraction(2))])
                     for n in range(1, 5)]
    periodic = ChainComplex("PERIODIC", dims, bnds)
    chh_dual = build_complex(builtin_algebra("dual"), "CHH", 4)
    for n in range(4):
        want = (2, 1, 1, 1)[n]
        assert periodic.betti(n) == want == chh_dual.betti(n), n
    _say("criterion 9 cycle_complex_model: PASS")


def test_criterion_10_deterministic_reverification(tmp_path):
    """Two full CLI verification runs with one shared cache directory exit
    zero with zero failures and produce byte-identical report.json files;
    timing and the flipped cache counters live only in the manifests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    cache = str(tmp_path / "cache")
    outs = [str(tmp_path / "r1"), str(tmp_path / "r2")]
    for out in outs:
        r = subprocess.run(
            [sys.executable, "-m", "leibhom.cli", "verify", "--suite", "all",
             "--cutoff", "3", "--matrix-size", "2", "--seed", "42",
             "--cache", cache, "--out", out],
            capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stdout + r.stderr
    blobs = [open(os.path.join(o, "report.json"), "rb").read() for o in outs]
    assert blobs[0] == blobs[1]
    rep = json.loads(blobs[0])
    assert rep["totals"]["fail"] == 0
    manifests = [json.load(open(os.path.join(o, "manifest.json")))
                 for o in outs]
    assert manifests[0]["cache"]["writes"] > 0
    assert manifests[0]["cache"]["hits"] == 0
    assert manifests[1]["cache"]["hits"] > 0
    assert manifests[1]["cache"]["writes"] == 0
    _say("criterion 10 deterministic_reverification: PASS")
