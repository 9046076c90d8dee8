"""The bundled verification suites: structure, determinism, and the
debug hook that proves a broken map actually trips the checks."""

import json

import pytest

from leibhom import chain_maps as cmaps
from leibhom.algebra import builtin_morphism, matrix_morphism
from leibhom.complexes import build_complex
from leibhom.homology import compose_maps, cone_pair_map, mapping_cone
from leibhom.suites import (SUITE_IDS, SuiteConfig, _relative_stream,
                            report_failed, run_all, run_suite)

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
    assert not report_failed(rep)
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


def test_run_all_order_and_determinism():
    # each config brings its own session, so the second run rebuilds it all
    first = run_all(SuiteConfig(cutoff=3, matrix_size=2, seed=42))
    second = run_all(SuiteConfig(cutoff=3, matrix_size=2, seed=42))
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
    assert report_failed(rep)
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
    rep = run_suite("degree0", SuiteConfig(algebras=("dual",), cutoff=2))
    assert not report_failed(rep)
    # phi, the cyclic projection, theta and the Lie projection
    assert len(ranked) == 4 and len({id(M) for M in ranked}) == 4


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
