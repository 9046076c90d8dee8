"""Seeded verification suites over the built-in catalogue.

Each suite runs a bundle of exact checks (boundary squares, chain-map
equations, diagram identities, homology ranks) and returns a plain dict
report: per-check status pass/fail/skipped with a witness on failure.
Reports are deterministic for a fixed config; nothing in them depends on
wall time. The heavy gl_N computations stream columns instead of storing
matrices, so every suite finishes quickly at the default config.
"""

import hashlib
import json
import random
from dataclasses import dataclass, field

from .algebra import (BUILTIN_MORPHISMS, BUILTIN_NAMES, builtin_algebra,
                      builtin_morphism, matrix_algebra, matrix_morphism,
                      validate_morphism)
from .complexes import (KINDS, KahlerModule, ResourceBoundExceeded, Session,
                        boundary_column_fn, build_complex, degree_dim,
                        index_tuple, tuple_index, verify_d2_streamed)
from .homology import (ChainComplex, ChainMapRep, compose_maps, cone_column_fn,
                       cone_pair_map, exactness_check, induced_map,
                       induced_rank_streamed, les_of_cone, mapping_cone,
                       pair_column_fn, verify_boundary_squares,
                       verify_chain_map)
from .linalg import SparseMatrix, rank_only
from .perms import (cyclic_class, cyclic_index, cyclic_shift, face_cyclic,
                    invert, sign, symmetric_group, symmetric_index)
from . import chain_maps as cmaps

SUITE_IDS = ("core", "degree0", "commutative", "matrices", "groupring",
             "relative", "appendix")

GROUP_NAMES = ("cyclic:1", "cyclic:2", "cyclic:3", "s3")

# degree dimension above which d o d is checked by streaming the columns of
# d_n instead of storing d_n
STREAM_STORE_LIMIT = 100000


@dataclass
class SuiteConfig:
    algebras: tuple = BUILTIN_NAMES
    cutoff: int = 4
    matrix_size: int = 3
    seed: int = 0
    # the run's boundaries, ranks, dimension bound and disk cache
    session: Session = field(default_factory=Session)
    debug_break_phi: bool = False

    def __post_init__(self):
        if self.cutoff < 2:
            raise ValueError("cutoff must be at least 2")
        if self.matrix_size < 2:
            raise ValueError("matrix size must be at least 2")
        self.algebras = tuple(self.algebras)

    def as_dict(self):
        return {
            "algebras": list(self.algebras),
            "cutoff": self.cutoff,
            "matrix_size": self.matrix_size,
            "seed": self.seed,
            "max_dim": self.session.max_dim,
            "debug_break_phi": self.debug_break_phi,
        }


class _Checks:
    """Accumulates check rows and remembers whether anything failed."""

    def __init__(self):
        self.rows = []

    def record(self, cid, ok, detail="", witness=None):
        row = {"id": cid, "status": "pass" if ok else "fail", "detail": detail}
        if witness is not None and not ok:
            row["witness"] = witness
        self.rows.append(row)
        return ok

    def skip(self, cid, reason):
        self.rows.append({"id": cid, "status": "skipped", "detail": reason})

    def chain_map(self, cid, F, top, detail=None):
        """Verify F as a chain map through degree top and record the row."""
        ok, wit = verify_chain_map(F, top)
        return self.record(cid, ok, detail or "exact, degrees <= %d" % top,
                           _fmt_wit(wit))

    def counts(self):
        c = {"pass": 0, "fail": 0, "skipped": 0}
        for row in self.rows:
            c[row["status"]] += 1
        return c


def _env_hash(config: SuiteConfig, suite: str) -> str:
    blob = json.dumps({"suite": suite, "config": config.as_dict()},
                      sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _report(suite, config, checks: _Checks):
    return {
        "suite": suite,
        "config": config.as_dict(),
        "environment_hash": _env_hash(config, suite),
        "checks": checks.rows,
        "counts": checks.counts(),
    }


def _complexes(config, A, kinds, cutoff):
    return {kind: build_complex(A, kind, cutoff, config.session)
            for kind in kinds}


def _random_coords(rng, dim, count=1):
    vecs = []
    for _ in range(count):
        v = {i: c for i, c in enumerate(rng.randint(-3, 3) for _ in range(dim)) if c}
        vecs.append(v)
    return vecs


def _fmt_wit(w):
    return None if w is None else {"degree": w[0], "column": w[1]}


def _maps_equal(F: ChainMapRep, G: ChainMapRep, top: int):
    for n in range(top + 1):
        if n in F.maps and n in G.maps:
            if F.maps[n] != G.maps[n]:
                bad = None
                for j in range(F.maps[n].cols):
                    if F.maps[n].columns[j] != G.maps[n].columns[j]:
                        bad = j
                        break
                return False, (n, bad)
    return True, None


def _d2_checks(checks, A, label, kinds, cutoff, session):
    for kind in kinds:
        cid = "boundary_squares_to_zero[%s:%s]" % (label, kind)
        try:
            direct_cut = cutoff
            streamed = []
            for n in range(cutoff, 0, -1):
                if degree_dim(A, kind, n) > STREAM_STORE_LIMIT:
                    streamed.append(n)
                    direct_cut = n - 1
                else:
                    break
            C = build_complex(A, kind, direct_cut, session)
            ok, wit = verify_boundary_squares(C)
            for n in streamed:
                if not ok:
                    break
                bad = verify_d2_streamed(A, kind, n, session)
                if bad is not None:
                    ok, wit = False, bad
            detail = "degrees <= %d, dims %s" % (cutoff, C.dims)
            if streamed:
                detail += ", degrees %s streamed" % sorted(streamed)
            checks.record(cid, ok, detail, _fmt_wit(wit))
        except ResourceBoundExceeded as e:
            checks.skip(cid, str(e))


_STREAM_DETAIL = "streamed rank >= %(r)d of target betti %(b)d, N=%(N)d"


def _streamed_surjectivity(checks, cid, hom, n, N, zero_detail, stream, detail):
    """Record whether a streamed map from gl_N chains hits all of hom.

    A zero target passes, a degree n that needs N >= n + 1 is skipped, and
    otherwise stream() gives induced_rank_streamed its (source dimension,
    split, boundary column, map column); the stream stops once it reaches
    the target betti b. detail is formatted with r, b, N and cols (the
    source dimension).
    """
    b = hom.betti
    if b == 0:
        checks.record(cid, True, zero_detail)
    elif N < n + 1:
        checks.skip(cid, "tested range needs matrix size >= %d" % (n + 1))
    else:
        cols, split, bcol, mcol = stream()
        r, _ = induced_rank_streamed(cols, split, bcol, mcol, hom, True)
        checks.record(cid, r >= b, detail % {"r": r, "b": b, "N": N, "cols": cols})


def _cl_stream(MA, m, map_col):
    """The stream of a map out of CL_m(MA), for _streamed_surjectivity."""
    return (degree_dim(MA, "CL", m), degree_dim(MA, "CL", m - 1),
            boundary_column_fn(MA, "CL", m), map_col)


# ---------------------------------------------------------------------------
# core


def suite_core(config: SuiteConfig):
    checks = _Checks()
    rng = random.Random(config.seed)
    cutoff = config.cutoff
    for name in config.algebras:
        A = builtin_algebra(name)
        kinds = [k for k in KINDS if k != "BAR" or A.group_meta is not None]
        _d2_checks(checks, A, name, kinds, cutoff, config.session)
        cx = _complexes(config, A, ("CL", "CHH", "CLAMBDA", "CE", "CE_ADJ"), cutoff)
        ph = cmaps.phi(A, cx["CL"], cx["CHH"], broken=config.debug_break_phi)
        th = cmaps.theta(A, cx["CE"], cx["CLAMBDA"])
        ep = cmaps.epsilon(A, cx["CE_ADJ"], cx["CHH"])
        pl = cmaps.proj_lie(A, cx["CL"], cx["CE"])
        pa = cmaps.proj_adjoint(A, cx["CL"], cx["CE_ADJ"])
        pI = cmaps.proj_I(A, cx["CHH"], cx["CLAMBDA"])
        for label, F in (("phi", ph), ("theta", th), ("epsilon", ep),
                         ("lie_projection", pl), ("adjoint_projection", pa),
                         ("cyclic_projection", pI)):
            checks.chain_map("%s_is_chain_map[%s]" % (label, name), F, cutoff)
        ok, wit = _maps_equal(compose_maps(ep, pa), ph, cutoff)
        checks.record("antisymmetrization_factors_through_adjoint_wedge[%s]" % name,
                      ok, "epsilon o adjoint_projection = phi as matrices",
                      _fmt_wit(wit))
        ok, wit = _maps_equal(compose_maps(pI, ph), compose_maps(th, pl), cutoff)
        checks.record("cyclic_projection_of_phi_equals_theta_of_lie_projection[%s]"
                      % name, ok,
                      "proj_I o phi = theta o proj_lie as matrices", _fmt_wit(wit))
        # quotient property on a random chain: classes of (1-t)v vanish
        ok = True
        wit = None
        for n in range(1, min(3, cutoff) + 1):
            dim = cx["CHH"].dims[n]
            for v in _random_coords(rng, dim, count=2):
                w = _one_minus_t(A, n, v)
                img = pI.maps[n].apply(w)
                if img:
                    ok, wit = False, {"degree": n}
                    break
        checks.record("cyclic_projection_kills_one_minus_t[%s]" % name, ok,
                      "seeded random chains, degrees 1..%d" % min(3, cutoff), wit)
        # phi is antisymmetric in the non-base slots
        ok, wit = _phi_slot_antisymmetry(A, cx["CL"], ph, cutoff)
        checks.record("phi_antisymmetric_in_nonbase_slots[%s]" % name, ok,
                      "phi o slot transposition = -phi as matrices", wit)
        ok = _phi_inverse_indexing_invariance(A, cx["CL"], cx["CHH"], ph, cutoff)
        checks.record("phi_sum_invariant_under_inverse_indexing[%s]" % name, ok,
                      "summing over sigma equals summing over sigma^{-1}")
    # small matrix algebra sanity at reduced cutoff
    MQ = matrix_algebra(builtin_algebra("rationals"), 2)
    _d2_checks(checks, MQ, "M2(rationals)", ("CL", "CHH", "CLAMBDA"), min(3, cutoff),
               config.session)
    cx = _complexes(config, MQ, ("CL", "CHH"), min(3, cutoff))
    checks.chain_map("phi_is_chain_map[M2(rationals)]",
                     cmaps.phi(MQ, cx["CL"], cx["CHH"]), min(3, cutoff))
    return _report("core", config, checks)


def _one_minus_t(A, n, v):
    """(1 - t) acting on CHH_n coordinates; t rotates with sign (-1)^n."""
    d = A.dim
    sgn = -1 if n % 2 else 1
    out = dict(v)
    for idx, c in v.items():
        t = index_tuple(idx, d, n + 1)
        rot = (t[-1],) + t[:-1]
        ridx = tuple_index(rot, d)
        out[ridx] = out.get(ridx, 0) - sgn * c
    return {k: val for k, val in out.items() if val}


def _phi_slot_antisymmetry(A, cl, ph, cutoff):
    d = A.dim
    for m in range(3, cutoff + 1):
        if m not in ph.maps:
            continue
        # transpose slots 1 and 2 (of 1..m-1), slot 0 fixed
        swap = SparseMatrix(cl.dims[m], cl.dims[m])
        for j in range(cl.dims[m]):
            t = index_tuple(j, d, m)
            s = (t[0], t[2], t[1]) + t[3:]
            swap.columns[j][tuple_index(s, d)] = 1
        lhs = ph.maps[m].matmul(swap)
        if lhs != ph.maps[m].scaled(-1):
            return False, {"degree": m}
    return True, None


def _phi_inverse_indexing_invariance(A, cl, chh, ph, cutoff):
    d = A.dim
    for m in range(2, cutoff + 1):
        if m not in ph.maps:
            continue
        for use_inverse in (False, True):
            alt = SparseMatrix(chh.dims[m - 1], cl.dims[m])
            for j in range(cl.dims[m]):
                t = index_tuple(j, d, m)
                for sg in symmetric_group(m - 1):
                    rho = invert(sg) if use_inverse else sg
                    arranged = (t[0],) + tuple(t[rho[k]] for k in range(m - 1))
                    idx = tuple_index(arranged, d)
                    alt.columns[j][idx] = alt.columns[j].get(idx, 0) + sign(sg)
                alt.columns[j] = {k: v for k, v in alt.columns[j].items() if v}
            if alt != ph.maps[m]:
                return False
    return True


# ---------------------------------------------------------------------------
# degree0


def suite_degree0(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    for name in config.algebras:
        A = builtin_algebra(name)
        cx = _complexes(config, A, ("CL", "CHH", "CLAMBDA", "CE"), cutoff)
        b = [cx["CL"].betti(1), cx["CHH"].betti(0), cx["CLAMBDA"].betti(0),
             cx["CE"].betti(1)]
        checks.record("degree_zero_bettis_agree[%s]" % name, len(set(b)) == 1,
                      "HL_1=%d HH_0=%d HC_0=%d HLie_1=%d" % tuple(b),
                      None if len(set(b)) == 1 else {"bettis": b})
        maps = (("phi", induced_map(cmaps.phi(A, cx["CL"], cx["CHH"]), 1)),
                ("cyclic_projection",
                 induced_map(cmaps.proj_I(A, cx["CHH"], cx["CLAMBDA"]), 0)),
                ("theta", induced_map(cmaps.theta(A, cx["CE"], cx["CLAMBDA"]), 1)),
                ("lie_projection",
                 induced_map(cmaps.proj_lie(A, cx["CL"], cx["CE"]), 1)))
        for label, F in maps:
            r = rank_only(F)
            checks.record("degree_zero_%s_bijective[%s]" % (label, name),
                          F.rows == F.cols and r == F.rows,
                          "induced map is %dx%d of rank %d" % (F.rows, F.cols, r))
    return _report("degree0", config, checks)


# ---------------------------------------------------------------------------
# commutative


def suite_commutative(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    for name in config.algebras:
        A = builtin_algebra(name)
        if not A.commutative:
            checks.skip("commutative_suite[%s]" % name,
                        "algebra is not commutative")
            continue
        cl = build_complex(A, "CL", cutoff, config.session)
        zero = all(cl.boundary(n).is_zero() for n in range(1, cutoff + 1))
        checks.record("loday_boundary_vanishes[%s]" % name, zero,
                      "all CL boundaries are zero matrices, degrees <= %d" % cutoff)
        want = [A.dim ** n for n in range(cutoff)]
        got = [cl.betti(n) for n in range(cutoff)]
        checks.record("leibniz_betti_is_dimension_power[%s]" % name, got == want,
                      "betti %s vs dim^n %s, n <= %d" % (got, want, cutoff - 1),
                      None if got == want else {"betti": got, "expected": want})
        km = KahlerModule(A)
        chh = build_complex(A, "CHH", cutoff, config.session)
        om = cmaps.omega_complex(km, cutoff)
        p = cmaps.p_kahler(A, km, cl, om)
        eo = cmaps.eps_omega(km, om, chh)
        for label, F in (("kahler_projection", p), ("kahler_inclusion", eo)):
            checks.chain_map("%s_is_chain_map[%s]" % (label, name), F, cutoff)
        surj = True
        detail = []
        for m in range(1, cutoff + 1):
            if m not in p.maps:
                continue
            r = rank_only(p.maps[m])
            tgt = om.dims[m - 1]
            detail.append("deg %d rank %d/%d" % (m, r, tgt))
            if r != tgt:
                surj = False
        checks.record("kahler_projection_surjective_per_degree[%s]" % name, surj,
                      "; ".join(detail))
        ok, wit = _kahler_square_in_homology(A, cl, chh, p, eo, cutoff)
        checks.record("kahler_square_commutes_in_homology[%s]" % name, ok,
                      "phi(z) - eps_omega(p(z)) is a boundary for every "
                      "basis cycle class, degrees <= %d" % (cutoff - 1), wit)
    return _report("commutative", config, checks)


def _kahler_square_in_homology(A, cl, chh, p, eo, cutoff):
    ph = cmaps.phi(A, cl, chh)
    for m in range(1, cutoff + 1):
        n = m - 1
        if n > chh.cutoff - 1 or m not in p.maps:
            continue
        hom = chh.homology(n)
        # commutative: every CL basis vector is a cycle
        diffmat = ph.maps[m] - eo.maps[n].matmul(p.maps[m])
        for j in range(cl.dims[m]):
            v = diffmat.columns[j]
            if not v:
                continue
            if not hom.is_boundary(v):
                return False, {"degree": m, "column": j}
    return True, None


# ---------------------------------------------------------------------------
# matrices


def suite_matrices(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    N = config.matrix_size
    # Leibniz homology of gl_N(Q) is one-dimensional in each low degree
    GQ = matrix_algebra(builtin_algebra("rationals"), N)
    try:
        clq = build_complex(GQ, "CL", cutoff, config.session)
        got = [clq.betti(n) for n in range(cutoff)]
        ok = all(b == 1 for b in got)
        checks.record("matrix_leibniz_betti_is_one[gl%d(rationals)]" % N, ok,
                      "betti %s, n <= %d" % (got, cutoff - 1),
                      None if ok else {"betti": got})
    except ResourceBoundExceeded as e:
        checks.skip("matrix_leibniz_betti_is_one[gl%d(rationals)]" % N, str(e))
    # trace and corner chain maps plus the Morita identity at small size
    for aname in ("rationals", "dual"):
        A = builtin_algebra(aname)
        MA = matrix_algebra(A, 2)
        cut = min(3, cutoff)
        chh_a = build_complex(A, "CHH", cut + 1, config.session)
        chh_ma = build_complex(MA, "CHH", cut, config.session)
        tr = cmaps.trace(MA, A, chh_ma, chh_a)
        co = cmaps.corner(A, MA, chh_a, chh_ma)
        for label, F in (("trace", tr), ("corner", co)):
            checks.chain_map("%s_is_chain_map[M2(%s)]" % (label, aname), F, cut)
        comp = compose_maps(tr, co)
        ok = all(comp.maps[n] == SparseMatrix.identity(chh_a.dims[n])
                 for n in range(cut + 1))
        checks.record("trace_after_corner_is_identity[M2(%s)]" % aname, ok,
                      "exact matrix identity, degrees <= %d" % cut)
        idm = True
        for n in range(min(2, cut - 1) + 1):
            F = induced_map(comp, n)
            b = chh_a.betti(n)
            if F.rows != b or F.cols != b or F != SparseMatrix.identity(b):
                idm = False
        checks.record("morita_identity_on_hochschild[M2(%s)]" % aname, idm,
                      "induced trace o corner = id on HH_n, n <= %d"
                      % min(2, cut - 1))
    # streamed surjectivity of (tr o phi)_* onto HH_n(A)
    for aname in ("dual", "split:2", "cyclic:2"):
        _tr_phi_surjectivity(checks, config, aname)
    # the lift of standard cycles composes back to the identity tensor
    _lift_checks(checks, config)
    return _report("matrices", config, checks)


def _tr_phi_surjectivity(checks, config, aname):
    A = builtin_algebra(aname)
    N = config.matrix_size
    MA = matrix_algebra(A, N)
    chh_a = build_complex(A, "CHH", max(config.cutoff, 3), config.session)
    for n in range(3):
        _streamed_surjectivity(
            checks, "trace_phi_surjective_onto_hochschild[%s:n=%d]" % (aname, n),
            chh_a.homology(n), n, N, "target HH_%d is zero, nothing to hit" % n,
            lambda m=n + 1: _cl_stream(MA, m, cmaps.tr_phi_column_fn(MA, A, m)),
            _STREAM_DETAIL)


def lift_identities(A, MA, lift, lba):
    """The composites that pin lift_p down on 3-cycles, as two booleans.

    lift runs P(A) -> CL(M_N(A)) and lba is L(A) to degree >= 3. The first
    value is tr o phi o lift(tau_3 (x) (a1,a2,a3)) = a1(x)a2(x)a3 on every
    basis tuple; the second is theta_nf o lift = slot reindexing on every
    3-cycle.
    """
    d = A.dim
    trphi3 = cmaps.tr_phi_column_fn(MA, A, 3)
    s3i = cyclic_index(3)[cyclic_shift(3)]
    roundtrip = True
    for t_i in range(d ** 3):
        (clj, coeff), = lift.maps[2].columns[s3i * d ** 3 + t_i].items()
        if coeff != 1 or trphi3(clj) != {t_i: 1}:
            roundtrip = False
            break
    comp = compose_maps(cmaps.theta_nf(MA, A, lift.target, lba), lift)
    normal_form = True
    for j in range(lift.source.dims[2]):
        s_i, t_i = divmod(j, d ** 3)
        sigma = cyclic_class(3)[s_i]
        slot = cmaps._slot_tuple(sigma, index_tuple(t_i, d, 3))
        want = {symmetric_index(3)[sigma] * d ** 3 + tuple_index(slot, d): 1}
        if comp.maps[2].columns[j] != want:
            normal_form = False
            break
    return roundtrip, normal_form


def _lift_checks(checks, config):
    A = builtin_algebra("dual")
    N = config.matrix_size
    if N < 3:
        checks.skip("standard_cycle_roundtrip[dual]",
                    "lift at degree 3 needs matrix size >= 3, have %d" % N)
        checks.skip("normal_form_inverts_lift[dual]",
                    "lift at degree 3 needs matrix size >= 3, have %d" % N)
        return
    MA = matrix_algebra(A, N)
    pcx = build_complex(A, "P", 2, config.session, cached=False)
    clma = build_complex(MA, "CL", 3, config.session)
    lift = cmaps.lift_p(A, MA, pcx, clma)
    # frozen formula instance in degree 1: tau_2 (x) (a, b) -> E^a_12 (x) E^b_21
    idx = MA.matrix_meta["index"]
    d = A.dim
    ok = True
    tau2 = cyclic_shift(2)
    s_i = cyclic_index(2)[tau2]
    for a in range(d):
        for b in range(d):
            col = lift.maps[1].columns[s_i * d * d + a * d + b]
            want = {idx[(1, 2, a)] * MA.dim + idx[(2, 1, b)]: 1}
            if col != want:
                ok = False
    checks.record("lift_of_transposition_hits_offdiagonal_units[dual]", ok,
                  "lift(tau_2 (x) (a,b)) = E^a_12 (x) E^b_21, all basis pairs")
    lba = build_complex(A, "L", 3, config.session, cached=False)
    roundtrip, normal_form = lift_identities(A, MA, lift, lba)
    checks.record("standard_cycle_roundtrip[dual]", roundtrip,
                  "tr o phi o lift(tau_3 (x) (a1,a2,a3)) = a1(x)a2(x)a3, "
                  "all basis tuples")
    checks.record("normal_form_inverts_lift[dual]", normal_form,
                  "theta_nf o lift = slot reindexing, exhaustive over 3-cycles")


# ---------------------------------------------------------------------------
# groupring


def suite_groupring(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    for gname in GROUP_NAMES:
        A = builtin_algebra(gname)
        bar = build_complex(A, "BAR", cutoff, config.session)
        chh = build_complex(A, "CHH", cutoff, config.session)
        pi = cmaps.bar_pi(A, chh, bar)
        io = cmaps.bar_iota(A, bar, chh)
        for label, F in (("bar_projection", pi), ("bar_inclusion", io)):
            checks.chain_map("%s_is_chain_map[%s]" % (label, gname), F, cutoff)
        comp = compose_maps(pi, io)
        ok = all(comp.maps[n] == SparseMatrix.identity(bar.dims[n])
                 for n in range(cutoff + 1))
        checks.record("bar_projection_retracts_inclusion[%s]" % gname, ok,
                      "pi o iota = identity in every degree <= %d" % cutoff)
        top = min(3, cutoff - 1)
        ok = True
        rows = []
        for n in range(top + 1):
            bb, bh = bar.betti(n), chh.betti(n)
            r = rank_only(induced_map(io, n))
            rows.append("n=%d: H(BG)=%d rank(iota_*)=%d HH=%d" % (n, bb, r, bh))
            if r != bb or bb > bh:
                ok = False
        checks.record("group_homology_is_retract_of_hochschild[%s]" % gname, ok,
                      "; ".join(rows))
        want = [1] + [0] * top
        got = [bar.betti(n) for n in range(top + 1)]
        checks.record("rational_group_homology_vanishes_positively[%s]" % gname,
                      got == want, "betti %s" % got,
                      None if got == want else {"betti": got})
        _bar_stream_surjectivity(checks, config, gname, bar, pi)
    return _report("groupring", config, checks)


def _bar_stream_surjectivity(checks, config, gname, bar, pi):
    A = builtin_algebra(gname)
    N = config.matrix_size
    MA = matrix_algebra(A, N)

    def stream(n):
        trphi = cmaps.tr_phi_column_fn(MA, A, n + 1)
        return _cl_stream(MA, n + 1, lambda j: pi.maps[n].apply(trphi(j)))

    for n in range(min(2, bar.cutoff - 1) + 1):
        _streamed_surjectivity(
            checks, "group_homology_hit_by_matrix_trace[%s:n=%d]" % (gname, n),
            bar.homology(n), n, N, "H_%d(BG;Q) is zero, nothing to hit" % n,
            lambda n=n: stream(n), _STREAM_DETAIL)


# ---------------------------------------------------------------------------
# relative


def suite_relative(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    for mname in BUILTIN_MORPHISMS:
        f = builtin_morphism(mname)
        rep = validate_morphism(f)
        nilp = rep.nilpotency
        hyp = rep.surjective and nilp is not None
        control = not hyp
        checks.record("morphism_validates[%s]" % mname,
                      rep.ok and rep.surjective, rep.describe())
        cones = {}
        for kind in ("CL", "CHH", "CLAMBDA"):
            s = build_complex(f.source, kind, cutoff + 1, config.session)
            t = build_complex(f.target, kind, cutoff + 1, config.session)
            fmap = cmaps.morphism_complex_map(f, kind, s, t)
            checks.chain_map("tensor_extension_is_chain_map[%s:%s]" % (mname, kind),
                             fmap, cutoff + 1)
            mc = mapping_cone(fmap)
            cones[kind] = (s, t, mc)
            mats, _labels = les_of_cone(mc, cutoff)
            nodes = exactness_check(mats)
            bad = [i for i, r in enumerate(nodes) if not r["exact"]]
            checks.record("long_exact_sequence_exact[%s:%s]" % (mname, kind),
                          not bad, "%d nodes through degree %d" % (len(nodes),
                                                                   cutoff),
                          None if not bad else {"nodes": bad})
        if mname.startswith("id_"):
            got = [cones["CHH"][2].cone.betti(n) for n in range(cutoff)]
            checks.record("identity_cone_is_acyclic[%s]" % mname,
                          all(b == 0 for b in got), "cone betti %s" % got)
        # relative cyclic comparison: I on cones
        chh_s, chh_t, mch = cones["CHH"]
        cla_s, cla_t, mcl = cones["CLAMBDA"]
        V = cmaps.proj_I(f.source, chh_s, cla_s)
        W = cmaps.proj_I(f.target, chh_t, cla_t)
        relI = cone_pair_map(mch, mcl, V, W)
        checks.chain_map("relative_cyclic_projection_is_chain_map[%s]" % mname,
                         relI, cutoff, "exact, cone degrees <= %d" % cutoff)
        surj = []
        allok = True
        for m in range(1, cutoff + 1):
            F = induced_map(relI, m)
            tb = mcl.cone.betti(m)
            r = rank_only(F)
            surj.append("deg %d rank %d/%d" % (m, r, tb))
            if r < tb:
                allok = False
        cid = "relative_hochschild_surjects_onto_cyclic[%s]" % mname
        if control:
            checks.skip(cid, "hypothesis gate (kernel nilpotency %s): observed %s"
                        % (nilp, "; ".join(surj)))
        else:
            checks.record(cid, allok, "; ".join(surj))
        if not control:
            _relative_streams(checks, config, mname, f, mch, mcl, V, W)
    _relative_naturality_small(checks, config)
    return _report("relative", config, checks)


def _relative_stream(f, glf, V, W, m, cyclic):
    """The stream of (tr o phi) on cone(glf: CL(GA) -> CL(GB)) at cone degree m.

    The result is (columns, split, boundary column, map column), as
    _streamed_surjectivity takes it. The cone is the one mapping_cone would
    build, and the map is the cone pair of tr o phi on both sides, followed
    by the cyclic projections V and W of the sources and targets of f when
    cyclic is set. Every column is generated and none is stored.
    """
    GA, GB = glf.source, glf.target
    c_block = degree_dim(GA, "CL", m - 1)
    rows_c = degree_dim(GA, "CL", m - 2)
    bcol = cone_column_fn(c_block, rows_c, boundary_column_fn(GA, "CL", m - 1),
                          cmaps.morphism_tensor_column_fn(glf, m - 1),
                          boundary_column_fn(GB, "CL", m))
    tr_a = cmaps.tr_phi_column_fn(GA, f.source, m - 1)
    tr_b = cmaps.tr_phi_column_fn(GB, f.target, m)
    if cyclic:
        pa, pb = V.maps[m - 2].apply, W.maps[m - 1].apply
        mcol = pair_column_fn(c_block, V.target.dims[m - 2],
                              lambda j: pa(tr_a(j)), lambda j: pb(tr_b(j)))
    else:
        mcol = pair_column_fn(c_block, V.source.dims[m - 2], tr_a, tr_b)
    return (c_block + degree_dim(GB, "CL", m),
            rows_c + degree_dim(GB, "CL", m - 1), bcol, mcol)


def _relative_streams(checks, config, mname, f, mch, mcl, V, W):
    """Streamed relative surjectivity of (tr o phi) and I o (tr o phi) at gl_N.

    V and W are the cyclic projections I of the source and target of f.
    """
    N = config.matrix_size
    glf = matrix_morphism(f, N)
    for comp, cone_t, cyclic in (("trace_phi", mch, False),
                                 ("cyclic_projection_of_trace_phi", mcl, True)):
        for n in range(min(2, config.cutoff - 2) + 1):
            _streamed_surjectivity(
                checks, "relative_%s_surjective[%s:n=%d]" % (comp, mname, n),
                cone_t.cone.homology(n + 1), n, N,
                "relative target at cone degree %d is zero" % (n + 1),
                lambda m=n + 2, cyclic=cyclic:
                    _relative_stream(f, glf, V, W, m, cyclic),
                "streamed rank >= %(r)d of relative betti %(b)d over "
                "%(cols)d columns, N=%(N)d")


def _relative_naturality_small(checks, config):
    """The cone pair of I o tr o phi is itself a chain map at matrix size 2."""
    f = builtin_morphism("dual_aug")
    glf = matrix_morphism(f, 2)
    GA, GB = glf.source, glf.target
    cut = min(4, config.cutoff)
    session = config.session
    cl_ga = build_complex(GA, "CL", cut, session, cached=False)
    cl_gb = build_complex(GB, "CL", cut, session, cached=False)
    mcc = mapping_cone(cmaps.morphism_complex_map(glf, "CL", cl_ga, cl_gb))
    chh_a = build_complex(f.source, "CHH", cut, session, cached=False)
    chh_b = build_complex(f.target, "CHH", cut, session, cached=False)
    cla_a = build_complex(f.source, "CLAMBDA", cut, session, cached=False)
    cla_b = build_complex(f.target, "CLAMBDA", cut, session, cached=False)
    mcl = mapping_cone(cmaps.morphism_complex_map(f, "CLAMBDA", cla_a, cla_b))
    chh_ga = build_complex(GA, "CHH", cut - 1, session, cached=False)
    chh_gb = build_complex(GB, "CHH", cut - 1, session, cached=False)
    VA = compose_maps(cmaps.proj_I(f.source, chh_a, cla_a),
                      compose_maps(cmaps.trace(GA, f.source, chh_ga, chh_a),
                                   cmaps.phi(GA, cl_ga, chh_ga)))
    WB = compose_maps(cmaps.proj_I(f.target, chh_b, cla_b),
                      compose_maps(cmaps.trace(GB, f.target, chh_gb, chh_b),
                                   cmaps.phi(GB, cl_gb, chh_gb)))
    checks.chain_map("relative_composite_natural_at_small_size[dual_aug]",
                     cone_pair_map(mcc, mcl, VA, WB), cut - 1,
                     "cone pair of I o tr o phi verified at matrix size 2, "
                     "degrees <= %d" % (cut - 1))


# ---------------------------------------------------------------------------
# appendix


def suite_appendix(config: SuiteConfig):
    checks = _Checks()
    cutoff = config.cutoff
    ok, wit = _presimplicial_identities(5)
    checks.record("cycle_faces_presimplicial", ok,
                  "d_i d_j = d_{j-1} d_i exhaustively on cycles of length <= 5",
                  wit)
    ok = True
    for n in range(2, 6):
        tau = cyclic_shift(n)
        if any(face_cyclic(tau, i) != cyclic_shift(n - 1) for i in range(n)):
            ok = False
    checks.record("cycle_faces_fix_standard_cycles", ok,
                  "every face of tau_n is tau_{n-1}, n <= 5")
    # acyclicity of the cycle-set complex via A = Q
    Q = builtin_algebra("rationals")
    pq = build_complex(Q, "P", min(5, cutoff + 1), config.session,
                       cached=False)
    got = [pq.betti(n) for n in range(min(5, cutoff + 1))]
    want = [1] + [0] * (len(got) - 1)
    checks.record("cycle_set_complex_acyclic", got == want,
                  "P(rationals) betti %s through degree %d" % (got, len(got) - 1),
                  None if got == want else {"betti": got})
    for name in ("rationals", "dual", "split:2"):
        A = builtin_algebra(name)
        _d2_checks(checks, A, name, ("P",), cutoff, config.session)
        P = build_complex(A, "P", cutoff + 1, config.session)
        chh = build_complex(A, "CHH", cutoff + 1, config.session)
        emb = cmaps.embed_cy(A, chh, P)
        checks.chain_map("cyclic_embedding_is_chain_map[%s]" % name, emb, cutoff)
        top = min(3, cutoff - 1)
        rows = []
        allok = True
        for n in range(top + 1):
            F = induced_map(emb, n)
            iso = (P.betti(n) == chh.betti(n) and F.rows == F.cols
                   and rank_only(F) == F.rows)
            rows.append("n=%d: %d vs %d" % (n, P.betti(n), chh.betti(n)))
            if not iso:
                allok = False
        checks.record("cycle_complex_computes_hochschild[%s]" % name, allok,
                      "induced isomorphism, " + "; ".join(rows))
        lcx = build_complex(A, "L", cutoff + 1, config.session)
        checks.chain_map("diagonal_faces_match_transported_boundary[%s]" % name,
                         cmaps.cycle_slot_bridge(A, P, lcx), cutoff,
                         "signed slot bridge intertwines the two boundaries, "
                         "degrees <= %d" % cutoff)
    # independent oracle for the dual numbers: the two-periodic resolution
    dual = builtin_algebra("dual")
    chh = build_complex(dual, "CHH", cutoff + 1, config.session)
    per = _periodic_dual_complex(cutoff + 1)
    top = min(3, cutoff - 1)
    got = [chh.betti(n) for n in range(top + 1)]
    want = [per.betti(n) for n in range(top + 1)]
    checks.record("hochschild_of_dual_matches_periodic_resolution",
                  got == want and got == [2] + [1] * top,
                  "CHH betti %s vs small-resolution betti %s" % (got, want),
                  None if got == want else {"betti": got, "oracle": want})
    return _report("appendix", config, checks)


def _presimplicial_identities(top_n):
    for n in range(3, top_n + 1):
        for p in cyclic_class(n):
            for j in range(1, n):
                for i in range(j):
                    if face_cyclic(face_cyclic(p, j), i) != \
                            face_cyclic(face_cyclic(p, i), j - 1):
                        return False, {"cycle": list(p), "i": i, "j": j}
    return True, None


def _periodic_dual_complex(cutoff):
    """A <- 0 <- A <- 2x <- A <- 0 <- ... computing Hochschild of Q[x]/(x^2)."""
    dims = [2] * (cutoff + 1)
    boundaries = [None]
    for n in range(1, cutoff + 1):
        m = SparseMatrix(2, 2)
        if n % 2 == 0:
            m.columns[0][1] = 2
        boundaries.append(m)
    return ChainComplex("PERIODIC_DUAL", dims, boundaries)


# ---------------------------------------------------------------------------


_SUITES = {
    "core": suite_core,
    "degree0": suite_degree0,
    "commutative": suite_commutative,
    "matrices": suite_matrices,
    "groupring": suite_groupring,
    "relative": suite_relative,
    "appendix": suite_appendix,
}


def run_suite(suite_id: str, config: SuiteConfig):
    if suite_id not in _SUITES:
        raise KeyError("unknown suite %r (have %s)" % (suite_id,
                                                       ", ".join(SUITE_IDS)))
    return _SUITES[suite_id](config)


def run_all(config: SuiteConfig):
    return [run_suite(sid, config) for sid in SUITE_IDS]


def report_failed(report) -> bool:
    return report["counts"]["fail"] > 0
