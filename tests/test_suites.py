"""The bundled verification suites: structure, determinism, and the
debug hook that proves a broken map actually trips the checks."""

import json

import pytest

from leibhom import chain_maps as cmaps
from leibhom.algebra import (BUILTIN_NAMES, builtin_algebra, builtin_morphism,
                             matrix_algebra, matrix_morphism)
from leibhom import complexes
from leibhom.complexes import (Session, boundary_matrix, build_complex,
                               index_tuple, tuple_index)
from leibhom.homology import compose_maps, cone_pair_map, mapping_cone
from leibhom.linalg import SparseMatrix
from leibhom.suites import (SUITE_IDS, SuiteConfig, _Checks, _d2_checks,
                            _fmt_wit, _maps_equal,
                            _phi_inverse_indexing_invariance,
                            _phi_slot_antisymmetry, _relative_stream,
                            lift_identities, run_suite)

FAST = SuiteConfig(cutoff=3, matrix_size=2, seed=42)


def test_suite_ids_fixed():
    assert SUITE_IDS == ("core", "degree0", "commutative", "matrices",
                         "groupring", "relative", "appendix")


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(cutoff=1)
    with pytest.raises(ValueError):
        SuiteConfig(matrix_size=1)
    cfg = SuiteConfig()
    d = cfg.as_dict()
    assert d["cutoff"] == 4 and d["matrix_size"] == 3 and d["seed"] == 0


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        run_suite("nope", FAST)


@pytest.mark.parametrize("suite", SUITE_IDS)
def test_each_suite_passes_at_fast_config(suite):
    rep = run_suite(suite, FAST)
    assert rep["suite"] == suite
    assert rep["counts"]["fail"] == 0, [c for c in rep["checks"]
                                        if c["status"] == "fail"]
    assert rep["counts"]["pass"] > 0
    for c in rep["checks"]:
        assert c["status"] in ("pass", "fail", "skipped")
        assert c["id"]
        # semantic check ids only: words, brackets, digits
        assert all(ch.isalnum() or ch in "_[]:=, ()<>" for ch in c["id"]), c["id"]


def test_report_shape_and_config_echo():
    rep = run_suite("degree0", FAST)
    assert set(rep) == {"suite", "config", "environment_hash", "checks",
                        "counts"}
    assert rep["config"]["cutoff"] == 3
    assert rep["config"]["seed"] == 42
    assert len(rep["environment_hash"]) == 16
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for c in rep["checks"]:
        counts[c["status"]] += 1
    assert counts == rep["counts"]


def test_battery_order_and_determinism():
    # the battery as cmd_verify runs it; each config brings its own
    # session, so the second run rebuilds it all
    def battery():
        config = SuiteConfig(cutoff=3, matrix_size=2, seed=42)
        return [run_suite(sid, config) for sid in SUITE_IDS]

    first, second = battery(), battery()
    assert [r["suite"] for r in first] == list(SUITE_IDS)
    blob1 = json.dumps(first, sort_keys=True)
    blob2 = json.dumps(second, sort_keys=True)
    assert blob1 == blob2
    assert sum(r["counts"]["fail"] for r in first) == 0


def test_seed_changes_only_sampled_details():
    a = run_suite("core", SuiteConfig(cutoff=3, matrix_size=2, seed=1))
    b = run_suite("core", SuiteConfig(cutoff=3, matrix_size=2, seed=2))
    assert a["counts"] == b["counts"]
    ids = [c["id"] for c in a["checks"]]
    assert ids == [c["id"] for c in b["checks"]]


def test_debug_break_phi_trips_core_suite():
    cfg = SuiteConfig(cutoff=3, matrix_size=2, seed=0, debug_break_phi=True)
    rep = run_suite("core", cfg)
    assert rep["counts"]["fail"] > 0
    bad = [c for c in rep["checks"] if c["status"] == "fail"]
    assert any(c["id"].startswith("phi_is_chain_map") for c in bad)
    withness = [c for c in bad if c.get("witness")]
    assert withness, "failures must carry witnesses"
    w = withness[0]["witness"]
    assert "degree" in w and "column" in w


def test_degree0_suite_ranks_each_induced_map_once(monkeypatch):
    import leibhom.suites as suites
    ranked = []
    real = suites.rank_only

    def counting(M):
        ranked.append(M)
        return real(M)

    monkeypatch.setattr(suites, "rank_only", counting)
    rep = run_suite("degree0", SuiteConfig(cutoff=2))
    assert rep["counts"]["fail"] == 0
    # phi, the cyclic projection, theta and the Lie projection, per algebra
    maps = 4 * len(BUILTIN_NAMES)
    assert len(ranked) == maps and len({id(M) for M in ranked}) == maps


def test_matrices_suite_skips_when_size_too_small():
    rep = run_suite("matrices", SuiteConfig(cutoff=3, matrix_size=2))
    skipped = [c for c in rep["checks"] if c["status"] == "skipped"]
    assert any("matrix size" in c["detail"] for c in skipped)


def test_relative_suite_reports_control_descriptively():
    rep = run_suite("relative", FAST)
    rows = [c for c in rep["checks"]
            if "split2_proj" in c["id"] and "surjects" in c["id"]]
    assert rows
    assert all(r["status"] == "skipped" for r in rows)
    assert any("hypothesis gate" in r["detail"] for r in rows)



@pytest.mark.parametrize("cyclic", [False, True])
def test_relative_stream_generates_the_materialized_cone_columns(cyclic):
    # the streamed cone of gl_2(dual_aug) on CL and its cone pair map of
    # tr o phi (then I when cyclic), against mapping_cone and cone_pair_map
    f = builtin_morphism("dual_aug")
    glf = matrix_morphism(f, 2)
    A, B, GA, GB = f.source, f.target, glf.source, glf.target

    def cx(X, kind, cutoff=4):
        return build_complex(X, kind, cutoff)

    def tr_phi(X, GX, proj):
        F = compose_maps(cmaps.trace(GX, X, cx(GX, "CHH", 3), cx(X, "CHH")),
                         cmaps.phi(GX, cx(GX, "CL"), cx(GX, "CHH", 3)))
        return compose_maps(proj, F) if cyclic else F

    mcc = mapping_cone(cmaps.morphism_complex_map(glf, "CL", cx(GA, "CL"),
                                                  cx(GB, "CL")))
    kind = "CLAMBDA" if cyclic else "CHH"
    mct = mapping_cone(cmaps.morphism_complex_map(f, kind, cx(A, kind),
                                                  cx(B, kind)))
    V = cmaps.proj_I(A, cx(A, "CHH"), cx(A, "CLAMBDA"))
    W = cmaps.proj_I(B, cx(B, "CHH"), cx(B, "CLAMBDA"))
    pair = cone_pair_map(mcc, mct, tr_phi(A, GA, V), tr_phi(B, GB, W))
    for m in (2, 3, 4):
        cols, split, bcol, mcol = _relative_stream(f, glf, V, W, m, cyclic)
        d = mcc.cone.boundary(m)
        assert (cols, split) == (d.cols, d.rows)
        for j in range(cols):
            assert bcol(j) == d.columns[j], (m, j)
            assert mcol(j) == pair.maps[m].columns[j], (m, j)


def test_d2_check_streams_the_degrees_over_the_session_bound():
    # over the bound, L_4 (384 columns) and P_4 (768) are streamed against
    # the stored L_3 (48) and P_3 (96) instead of skipping the whole row
    checks = _Checks()
    _d2_checks(checks, builtin_algebra("dual"), "dual", ("L", "P"), 4,
               Session(max_dim=100))
    assert [(row["status"], row["detail"]) for row in checks.rows] == [
        ("pass", "degrees <= 4, dims [1, 2, 8, 48], degrees [4] streamed"),
        ("pass", "degrees <= 4, dims [2, 4, 16, 96], degrees [4] streamed"),
    ]
    # CLAMBDA streams like every kind: s3 CLAMBDA_4 (1560 columns) against
    # the stored CLAMBDA_3 (330)
    checks = _Checks()
    _d2_checks(checks, builtin_algebra("s3"), "s3", ("CLAMBDA",), 4,
               Session(max_dim=1000))
    assert [(row["status"], row["detail"]) for row in checks.rows] == [
        ("pass", "degrees <= 4, dims [6, 15, 76, 330], degrees [4] streamed"),
    ]


def test_d2_check_certifies_a_degree_whose_lower_boundary_is_over_the_bound():
    """Over the bound of 8, dual's CHH_3 (16 columns) and CHH_4 (32) are
    both proved from their terms, and CHH_4 does not build the d_3 below it,
    which is over the bound too: the row passes instead of being skipped."""
    session = Session(max_dim=8)
    checks = _Checks()
    _d2_checks(checks, builtin_algebra("dual"), "dual", ("CHH",), 4, session)
    assert [(row["status"], row["detail"]) for row in checks.rows] == [
        ("pass", "degrees <= 4, dims [2, 4, 8], degrees [3, 4] streamed")]
    assert max(M.cols for M in session.boundaries.values()) == 8


def test_d2_check_names_the_lowest_failing_streamed_degree(monkeypatch):
    """Streamed degrees are checked lowest first: with a fault planted in
    both, the row names the lower one."""
    A = builtin_algebra("dual")
    # over the bound of 8, CHH_3 (16 columns) and CHH_4 (32) are streamed;
    # CHH_4 streams against a d_3 the session holds already
    session = Session(max_dim=8)
    real = complexes.boundary_column_fn
    d3 = boundary_matrix(A, "CHH", 3)
    session.boundaries[(A.fingerprint(), "CHH", 3)] = d3
    # column 0 of each faulty d_n is a basis vector that d_{n-1} does not
    # kill
    hit = {n: next(r for r, col in enumerate(lower.columns) if col)
           for n, lower in ((3, boundary_matrix(A, "CHH", 2)), (4, d3))}

    def faulty(A, kind, n):
        fn = real(A, kind, n)
        if n not in hit:
            return fn
        return lambda j: {hit[n]: 1} if j == 0 else fn(j)

    monkeypatch.setattr(complexes, "boundary_column_fn", faulty)
    checks = _Checks()
    _d2_checks(checks, A, "dual", ("CHH",), 4, session)
    [row] = checks.rows
    assert row["status"] == "fail"
    assert row["detail"] == ("degrees <= 4, dims [2, 4, 8], degrees [3, 4] "
                             "streamed")
    assert row["witness"] == _fmt_wit((3, 0))


def test_relative_suite_stores_no_m2_dual_degree_above_its_naturality_check():
    """relative_composite_natural_at_small_size verifies the cone squares
    through degree min(4, cutoff) - 1 = 3, so no boundary over M_2(dual) it
    stores goes above that degree: CL to 3 for the cone, and CHH to 1 for
    phi into CHH_{n-1} on the cone's C block, CL_{n-1}. The CL complexes
    over M_2(dual) once went to 4 and CHH to 3."""
    config = SuiteConfig(cutoff=4)
    rep = run_suite("relative", config)
    cid = "relative_composite_natural_at_small_size[dual_aug]"
    [row] = [c for c in rep["checks"] if c["id"] == cid]
    assert (row["status"], row["detail"]) == (
        "pass", "cone pair of I o tr o phi verified at matrix size 2, "
                "degrees <= 3")
    m2dual = matrix_morphism(builtin_morphism("dual_aug"), 2).source
    assert sorted((kind, n) for fp, kind, n in config.session.boundaries
                  if fp == m2dual.fingerprint()) == [
        ("CHH", 1), ("CL", 1), ("CL", 2), ("CL", 3)]


def test_degree0_suite_stores_no_boundary_above_degree_2():
    """HL_1, HH_0, HC_0 and HLie_1 read d_1 and d_2 only, whatever the
    cutoff."""
    config = SuiteConfig(cutoff=4)
    rep = run_suite("degree0", config)
    assert rep["counts"]["fail"] == 0
    assert max(n for _, _, n in config.session.boundaries) == 2


def test_lift_identities_evaluate_the_normal_form_on_the_lift_columns_only(
        monkeypatch):
    """theta_nf o lift is read off the normal form's columns at the tensors
    the lift's degree-2 columns hold: one per 3-cycle and basis tuple, not
    the 5832 columns of CL_3(M_3(dual))."""
    A = builtin_algebra("dual")
    MA = matrix_algebra(A, 3)
    lift = cmaps.lift_p(A, MA, build_complex(A, "P", 2),
                        build_complex(MA, "CL", 3))
    evaluated = []
    real = cmaps.theta_nf_column_fn

    def counted(*args):
        col = real(*args)
        return lambda j: evaluated.append(j) or col(j)

    monkeypatch.setattr(cmaps, "theta_nf_column_fn", counted)
    assert lift_identities(A, MA, lift) == (True, True)
    assert sorted(evaluated) == sorted(
        j for col in lift.maps[2].columns for j in col)
    assert len(evaluated) == lift.source.dims[2] == 16


def _matrix_maps_equal(F, G, top):
    """The materialized comparison the column-wise _maps_equal replaces."""
    for n in range(top + 1):
        if n in F.maps and n in G.maps and F.maps[n] != G.maps[n]:
            return False, (n, next(j for j in range(F.maps[n].cols)
                                   if F.maps[n].columns[j]
                                   != G.maps[n].columns[j]))
    return True, None


@pytest.mark.parametrize("name", ["dual", "s3"])
@pytest.mark.parametrize("fault", [None, "broken", (3, 5), (4, 13)])
def test_column_wise_core_checks_match_the_matrix_products(name, fault):
    """The core checks that compare column by column give the results and
    witnesses of the matrix products they replace: with phi sound, broken
    (one ordering's sign flipped from degree 3), or with one entry planted
    in column j of its degree-m component."""
    A = builtin_algebra(name)
    cx = {kind: build_complex(A, kind, 4)
          for kind in ("CL", "CHH", "CLAMBDA", "CE", "CE_ADJ")}
    sound = cmaps.phi(A, cx["CL"], cx["CHH"])
    ph = cmaps.phi(A, cx["CL"], cx["CHH"], broken=fault == "broken")
    if isinstance(fault, tuple):
        m, j = fault
        ph.maps[m].columns[j] = dict(ph.maps[m].columns[j])
        ph.maps[m].columns[j][0] = ph.maps[m].columns[j].get(0, 0) + 1
    th = cmaps.theta(A, cx["CE"], cx["CLAMBDA"])
    ep = cmaps.epsilon(A, cx["CE_ADJ"], cx["CHH"])
    pl = cmaps.proj_lie(A, cx["CL"], cx["CE"])
    pa = cmaps.proj_adjoint(A, cx["CL"], cx["CE_ADJ"])
    pI = cmaps.proj_I(A, cx["CHH"], cx["CLAMBDA"])
    got = _maps_equal((ep, pa), (ph,), 4)
    assert got == _matrix_maps_equal(compose_maps(ep, pa), ph, 4)
    assert got == {None: (True, None), "broken": (False, (3, 0))}.get(
        fault, (False, fault))
    assert _maps_equal((pI, ph), (th, pl), 4) == _matrix_maps_equal(
        compose_maps(pI, ph), compose_maps(th, pl), 4)
    d = A.dim
    first_bad = None
    for m in (3, 4):
        swap = SparseMatrix.from_columns(d ** m, d ** m, lambda j: {
            tuple_index((lambda t: (t[0], t[2], t[1]) + t[3:])(
                index_tuple(j, d, m)), d): 1})
        if ph.maps[m].matmul(swap) != ph.maps[m].scaled(-1):
            first_bad = m
            break
    assert first_bad == (None if fault is None else 3 if fault == "broken"
                         else fault[0])
    assert _phi_slot_antisymmetry(A, cx["CL"], ph, 4) == (
        (True, None) if first_bad is None else (False, {"degree": first_bad}))
    assert _phi_inverse_indexing_invariance(A, cx["CL"], ph, 4) is (
        fault is None)
