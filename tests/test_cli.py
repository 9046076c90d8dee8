"""End-to-end runs of the command line through a subprocess."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from leibhom import cache
from leibhom import chain_maps as cmaps
from leibhom import cli
from leibhom.algebra import builtin_algebra
from leibhom.complexes import ResourceBoundExceeded
from leibhom.serialize import algebra_to_dict, save_algebra
from leibhom.suites import check_matrix_size_for

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "leibhom.cli", *args],
                          capture_output=True, text=True, env=env)


def test_algebra_list():
    r = run_cli("algebra", "list")
    assert r.returncode == 0
    for name in ("rationals", "dual", "s3"):
        assert name in r.stdout


def test_algebra_inspect():
    r = run_cli("algebra", "inspect", "cyclic:3")
    assert r.returncode == 0
    assert "dim: 3" in r.stdout
    assert "group order: 3" in r.stdout
    assert run_cli("algebra", "inspect", "bogus").returncode == 2


def test_algebra_validate_paths(tmp_path):
    good = tmp_path / "dual.json"
    save_algebra(builtin_algebra("dual"), str(good))
    assert run_cli("algebra", "validate", str(good)).returncode == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{...")
    assert run_cli("algebra", "validate", str(bad)).returncode == 2

    broken = tmp_path / "broken.json"
    d = algebra_to_dict(builtin_algebra("truncated_poly:3"))
    d["table"] = [row for row in d["table"] if row[:2] != [2, 2]] \
        + [[2, 2, [[0, "1"]]]]
    broken.write_text(json.dumps(d))
    r = run_cli("algebra", "validate", str(broken))
    assert r.returncode == 1
    assert "associativity" in r.stdout


def test_small_battery_report_is_pinned(tmp_path):
    """The cutoff-3, N=2 battery reaches the skip branches of the streamed
    surjectivity checks and of the lift checks. Its report.json is pinned
    byte for byte; a change that alters the report on purpose updates the
    digest and says why."""
    r = run_cli("verify", "--suite", "all", "--cutoff", "3", "--matrix-size",
                "2", "--seed", "42", "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    raw = (tmp_path / "report.json").read_bytes()
    details = [c["detail"] for s in json.loads(raw)["suites"]
               for c in s["checks"] if c["status"] == "skipped"]
    assert "tested range needs matrix size >= 3" in details
    assert "lift at degree 3 needs matrix size >= 3, have 2" in details
    assert hashlib.sha256(raw).hexdigest() == \
        "4050b11eba171e67d4266dfee89830811668a4d39760853ed854051c03e37132"


@pytest.mark.parametrize("args,digest", [
    (("--algebra", "cyclic:2", "--maps", "PHI,THETA,EPSILON,PROJ_LIE,PROJ_ADJ,"
      "PROJ_I,P_KAHLER,TRACE,CORNER,BAR_PI,BAR_IOTA,EMBED_CY",
      "--max-degree", "4"),
     "1f88521881b5e7b6a5ab48f1001c61b665543142fa671e7ae847109a4545fe28"),
    (("--algebra", "dual", "--maps", "LIFT_P,P_KAHLER",
      "--matrix-size", "3", "--max-degree", "3"),
     "ebeddb3bfd5256658c62243e3f71fb85e2398e32e2d4416dd3606e271fb2cf14"),
])
def test_map_reports_are_pinned(tmp_path, args, digest):
    """Between them these two runs build every comparison map that compute
    offers, and with them the degree range, shape and columns of each. The
    report.json is pinned byte for byte."""
    r = run_cli("compute", *args, "--out", str(tmp_path))
    assert r.returncode == 0, r.stderr
    raw = (tmp_path / "report.json").read_bytes()
    for m in json.loads(raw)["maps"]:
        assert m.get("chain_map_verified", True) is True
        assert all(i["status"] == "pass" for i in m.get("identities", []))
    assert hashlib.sha256(raw).hexdigest() == digest


def test_no_map_token_is_an_alias():
    """Every --maps token but P_KAHLER, which has no _MAPS entry, names its
    own (builder, source, target) and complexes: no two tokens run one map
    under two names."""
    runs = [(cli._MAPS[token], tuple(cli._map_complexes(token, 3)))
            for token in cli.MAP_TOKENS if token != "P_KAHLER"]
    assert len(set(runs)) == len(runs) == len(cli.MAP_TOKENS) - 1


def test_hochschild_homology_of_s3_to_degree_5_is_pinned(tmp_path):
    """compute s3 CHH to degree 5, the largest table ranked by clearing,
    through cli.main. HH_*(Q[S_3]) is Q^3 in degree 0 (three conjugacy
    classes) and 0 above; the report.json is pinned byte for byte."""
    assert cli.main(["compute", "--algebra", "s3", "--complex", "CHH",
                     "--max-degree", "5", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "report.json").read_bytes()
    [table] = json.loads(raw)["tables"]
    assert table["betti"] == [3, 0, 0, 0, 0]
    assert hashlib.sha256(raw).hexdigest() == \
        "9af5c27270d91897bd5e5bb4ff4cdddbda264e14fac3f2c59fc46155b2d64fae"


def test_induced_maps_over_cyclic_3_to_degree_6_are_pinned(tmp_path):
    """compute CL, CHH and CLAMBDA of cyclic:3 to degree 6 with PHI, PROJ_I
    and BAR_IOTA, through cli.main: its maps need the stored boundaries, so
    every kind but P is ranked stored by rows (rank_only). The report.json is
    pinned byte for byte, with the digest perfbench/expected.json gives its
    induced_maps_c3 workload."""
    assert cli.main(["compute", "--algebra", "cyclic:3", "--complex",
                     "CL,CHH,CLAMBDA", "--maps", "PHI,PROJ_I,BAR_IOTA",
                     "--max-degree", "6", "--out", str(tmp_path)]) == 0
    raw = (tmp_path / "report.json").read_bytes()
    assert all(m["chain_map_verified"] for m in json.loads(raw)["maps"])
    assert hashlib.sha256(raw).hexdigest() == \
        "c26342547fc6ca18ce4c5c8eea4982d41e6a77d32ba24029becbdc88e2f6b2d3"


def test_compute_writes_reports(tmp_path):
    out = tmp_path / "out"
    r = run_cli("compute", "--algebra", "dual", "--complex", "CHH,CLAMBDA",
                "--max-degree", "3", "--maps", "PHI", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    man = json.loads((out / "manifest.json").read_text())
    md = (out / "report.md").read_text()

    chh = next(t for t in rep["tables"] if t["kind"] == "CHH")
    assert chh["betti"] == [2, 1, 1]
    assert chh["top_degree"]["boundary_incomplete"] is True
    clam = next(t for t in rep["tables"] if t["kind"] == "CLAMBDA")
    assert clam["betti"] == [2, 0, 2]
    prep = next(m for m in rep["maps"] if m["map"] == "PHI")
    assert prep["chain_map_verified"] is True
    assert {row["degree"]: row["rank"] for row in prep["induced_ranks"]}[1] == 2

    assert "report.json" not in rep  # no self reference
    assert "wall_time_s" in man and "cache" in man
    assert man["command"][0] == "leibhom"
    assert "| CHH |" in md


def test_importing_the_cli_leaves_dataclasses_and_inspect_out():
    """Each of them pulls in a dozen stdlib modules (ast, dis, tokenize, ...)
    that every leibhom process would import and, without bytecode, compile."""
    r = subprocess.run(
        [sys.executable, "-c", "import sys, leibhom.cli; print(sorted("
         "{'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(REPO, "src")))
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_compute_report_is_the_same_with_and_without_a_cache(tmp_path):
    """Without a cache the tables are ranked from their generated rows and
    nothing is stored; with one every boundary is built, written, and ranked
    stored by rank_only."""
    args = ("compute", "--algebra", "dual", "--complex", "CL,CHH,CLAMBDA",
            "--max-degree", "4")
    cache = ("--cache", str(tmp_path / "c"))
    reports = []
    for out, extra in (("plain", ()), ("cold", cache), ("warm", cache)):
        r = run_cli(*args, *extra, "--out", str(tmp_path / out))
        assert r.returncode == 0, r.stderr
        reports.append((tmp_path / out / "report.json").read_bytes())
    assert reports[0] == reports[1] == reports[2]
    assert len(list((tmp_path / "c").glob("*.bnd"))) == 12


def test_a_table_the_run_does_not_keep_stores_no_boundary(tmp_path):
    """Without a cache a table stores nothing; it ranks the boundaries of a
    complex built before it, and with a cache it stores each one."""
    from leibhom.complexes import Session, build_complex
    A = builtin_algebra("dual")
    session = Session()
    table = cli._betti_table(A, "CHH", 3, session)
    assert session.boundaries == {}
    assert session.ranks == {(A.fingerprint(), "CHH", n): rank
                             for n, rank in ((1, 0), (2, 3), (3, 4))}
    assert table["betti"] == [2, 1, 1] and table["dims"] == [2, 4, 8, 16]
    built = Session()
    C = build_complex(A, "CHH", 3, built)
    assert table == cli._betti_table(A, "CHH", 3, built)
    assert [C.betti(n) for n in range(3)] == table["betti"]
    assert C.dims == table["dims"]
    cached = Session(cache_dir=str(tmp_path))
    assert table == cli._betti_table(A, "CHH", 3, cached)
    assert cached.boundaries == built.boundaries


def test_the_kinds_a_map_builds_keep_their_boundaries(tmp_path, monkeypatch):
    """PHI builds CL and CHH, so their tables store d_1..d_3 as the map will
    read them; CLAMBDA, which no map builds, is ranked from its generated
    rows by rank_by_rows."""
    from leibhom import complexes
    sessions = []
    real = cli._session
    monkeypatch.setattr(cli, "_session",
                        lambda *args: sessions.append(real(*args))
                        or sessions[-1])
    by_rows = []
    real_rows = complexes.rank_by_rows
    monkeypatch.setattr(complexes, "rank_by_rows",
                        lambda rows, cols, skip: by_rows.append(
                            (len(rows), cols)) or real_rows(rows, cols, skip))
    assert cli.main(["compute", "--algebra", "dual", "--complex",
                     "CL,CHH,CLAMBDA", "--maps", "PHI", "--max-degree", "3",
                     "--out", str(tmp_path)]) == 0
    [session] = sessions
    fingerprint = builtin_algebra("dual").fingerprint()
    assert set(session.boundaries) == {
        (fingerprint, kind, n) for kind in ("CL", "CHH") for n in (1, 2, 3)}
    assert {n for fp, kind, n in session.ranks
            if (fp, kind) == (fingerprint, "CLAMBDA")} == {1, 2, 3}
    # the shapes of CLAMBDA's d_1, d_2, d_3 over dual
    assert by_rows == [(2, 1), (1, 4), (4, 4)]


def test_compute_exit_codes(tmp_path):
    out = str(tmp_path / "x")
    assert run_cli("compute", "--algebra", "dual", "--complex", "NOPE",
                   "--out", out).returncode == 2
    assert run_cli("compute", "--algebra", "missing_name", "--complex", "CL",
                   "--out", out).returncode == 2
    assert run_cli("compute", "--algebra", "dual",
                   "--out", out).returncode == 2
    r = run_cli("compute", "--algebra", "s3", "--complex", "CHH",
                "--max-degree", "4", "--max-dim", "500", "--out", out)
    assert r.returncode == 3
    assert "bound" in r.stderr
    assert run_cli("compute", "--algebra", "s3", "--maps", "P_KAHLER",
                   "--out", out).returncode == 2
    assert run_cli("compute", "--algebra", "dual", "--complex", "BAR",
                   "--out", out).returncode == 2
    assert run_cli("compute", "--algebra", "dual", "--maps", "LIFT_P",
                   "--matrix-size", "2", "--out", out).returncode == 2
    # a bad matrix size is an input error, not a failed verification
    r = run_cli("compute", "--algebra", "dual", "--maps", "TRACE",
                "--matrix-size", "0", "--out", out)
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_a_negative_betti_is_a_failed_check_not_a_usage_error(
        tmp_path, monkeypatch, capsys):
    """With the sign of the wrap face of b flipped, the CHH boundaries do
    not compose to zero and a betti number comes out negative: exit 1, the
    code of a failed verification, with the reason on stderr."""
    from leibhom import complexes
    real = complexes._hochschild_faces

    def flipped(n):
        *faces, (i, j, swapped, sign) = real(n)
        return faces + [(i, j, swapped, -sign)]

    monkeypatch.setattr(complexes, "_hochschild_faces", flipped)
    assert cli.main(["compute", "--algebra", "dual", "--complex", "CHH",
                     "--max-degree", "3", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "error: CHH betti -2 in degree 1: the boundaries do not compose to "
        "zero\n")
    assert not (tmp_path / "report.json").exists()


def test_a_cache_written_by_other_code_is_rejected_not_read(tmp_path,
                                                            monkeypatch):
    """A cache filled by a CHH generator whose d_4 is zero, under that
    code's generator digest: read under the same digest, it gives wrong
    bettis; read by this code, every file is rejected and rewritten, and
    the bettis are right."""
    from leibhom import complexes
    cdir = str(tmp_path / "cache")

    def compute(out):
        assert cli.main(["compute", "--algebra", "dual", "--complex", "CHH",
                         "--max-degree", "5", "--cache", cdir,
                         "--out", str(tmp_path / out)]) == 0
        rep = json.loads((tmp_path / out / "report.json").read_text())
        man = json.loads((tmp_path / out / "manifest.json").read_text())
        return rep["tables"][0]["betti"], man["cache"], man["cache_rejects"]

    real = complexes._COLUMN_BUILDERS["CHH"]
    with monkeypatch.context() as patch:
        patch.setattr(cache, "_generator_digest", lambda: "0" * 64)
        patch.setitem(complexes._COLUMN_BUILDERS, "CHH", lambda A, n: (
            (lambda j: {}) if n == 4 else real(A, n)))
        assert compute("stale")[1:] == (
            {"hits": 0, "misses": 5, "writes": 5}, 0)
    # the binding is all that keeps the stale files out
    with monkeypatch.context() as patch:
        patch.setattr(cache, "_generator_digest", lambda: "0" * 64)
        assert compute("misread") == (
            [2, 1, 1, 12, 12], {"hits": 5, "misses": 0, "writes": 0}, 0)
    assert compute("fresh") == (
        [2, 1, 1, 1, 1], {"hits": 0, "misses": 0, "writes": 5}, 5)
    assert compute("warm") == (
        [2, 1, 1, 1, 1], {"hits": 5, "misses": 0, "writes": 0}, 0)


@pytest.mark.parametrize("args", [
    ("compute", "--algebra", "dual", "--complex", "CL", "--max-degree", "3",
     "--max-dim", "-5"),
    ("verify", "--suite", "core", "--cutoff", "2", "--max-dim", "-5"),
    ("verify", "--suite", "core", "--cutoff", "2", "--max-dim", "0"),
])
def test_a_max_dim_below_one_is_a_usage_error(tmp_path, args):
    out = tmp_path / "out"
    r = run_cli(*args, "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "max_dim" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("args,repeated", [
    (("--complex", "CL,CL"), "--complex names CL more"),
    (("--complex", "CL,CHH,CL,CHH"), "--complex names CHH, CL more"),
    (("--complex", "CL", "--maps", "PHI,PHI"), "--maps names PHI more"),
])
def test_compute_refuses_a_repeated_token(tmp_path, args, repeated):
    out = tmp_path / "out"
    r = run_cli("compute", "--algebra", "dual", "--max-degree", "2", *args,
                "--out", str(out))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and repeated in r.stderr
    assert not out.exists()


def test_compute_refuses_an_unknown_map_before_any_table(tmp_path,
                                                          monkeypatch,
                                                          capsys):
    def no_table(*args):
        raise AssertionError("a betti table was computed")

    monkeypatch.setattr(cli, "_betti_table", no_table)
    out = tmp_path / "out"
    # THETA_NF was once a second token for the lift LIFT_P runs
    for token in ("BOGUS", "THETA_NF"):
        assert cli.main(["compute", "--algebra", "dual", "--complex", "CL",
                         "--maps", token, "--max-degree", "2",
                         "--out", str(out)]) == 2
        assert "unknown map kind %r" % token in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("args", [
    ("compute", "--algebra", "dual", "--complex", "CL", "--max-dim", "-5"),
    ("compute", "--algebra", "dual", "--complex", "CL", "--maps", "BOGUS"),
    ("compute", "--algebra", "dual", "--complex", "NOPE"),
    ("verify", "--suite", "core", "--cutoff", "2", "--max-dim", "-5"),
    ("verify", "--suite", "core", "--cutoff", "1"),
    ("verify", "--suite", "nope"),
    # a prerequisite of a kind or map is checked before any table
    ("compute", "--algebra", "dual", "--complex", "CL,BAR", "--max-degree", "2"),
    ("compute", "--algebra", "s3", "--complex", "CL", "--maps", "P_KAHLER"),
    ("compute", "--algebra", "dual", "--maps", "LIFT_P", "--matrix-size", "2"),
    # a --matrix-size that M_N(A) refuses is refused before any table
    ("compute", "--algebra", "dual", "--complex", "CL", "--maps", "TRACE",
     "--matrix-size", "0"),
    ("compute", "--algebra", "dual", "--complex", "CL", "--maps", "CORNER",
     "--matrix-size", "46"),
    # an N at which a requested suite cannot build M_N is refused before any
    # suite runs: dual at 46 (matrices), s3 at 27, truncated_poly:3 at 37
    ("verify", "--suite", "all", "--cutoff", "2", "--matrix-size", "46"),
    ("verify", "--suite", "groupring", "--cutoff", "2", "--matrix-size", "27"),
    ("verify", "--suite", "relative", "--cutoff", "2", "--matrix-size", "37"),
])
def test_a_refused_run_makes_no_cache_directory(tmp_path, args):
    cache = tmp_path / "cache"
    assert cli.main([*args, "--cache", str(cache),
                     "--out", str(tmp_path / "out")]) == 2
    assert not cache.exists()


@pytest.mark.parametrize("args,over", [
    # CL_3 (216) is within the bound, but CHH_3 (1296) is not
    (("--algebra", "s3", "--complex", "CL,CHH", "--max-degree", "3",
      "--max-dim", "300"), "CHH degree 3 needs 1296"),
    # the maps through M_2(dual) (dim 8): CL and CHH over dual are within
    # the bound, but CHH_2 over M_2(dual) (512) is not
    (("--algebra", "dual", "--complex", "CL", "--maps", "TRACE",
      "--max-degree", "4", "--max-dim", "300"), "CHH degree 2 needs 512"),
    (("--algebra", "dual", "--complex", "CL", "--maps", "CORNER",
      "--max-degree", "4", "--max-dim", "300"), "CHH degree 2 needs 512"),
    # the lift: P_2(dual) is within the bound, CL_3(M_3(dual)) (5832) is not
    (("--algebra", "dual", "--maps", "LIFT_P", "--matrix-size", "3",
      "--max-degree", "2", "--max-dim", "1000"), "CL degree 3 needs 5832"),
], ids=["s3", "TRACE", "CORNER", "LIFT_P"])
def test_compute_checks_the_bound_of_every_degree_before_any_table(
        tmp_path, capsys, args, over):
    cache = tmp_path / "cache"
    assert cli.main(["compute", *args, "--cache", str(cache),
                     "--out", str(tmp_path)]) == 3
    assert over in capsys.readouterr().err
    assert not cache.exists()


def test_compute_refuses_an_over_bound_matrix_algebra_before_building_it(
        tmp_path, capsys, monkeypatch):
    """M_30(dual) has dimension 1800: CHH_1 over it needs 1800^2 columns,
    refused on that dimension before its product table is built."""
    built = []
    monkeypatch.setattr(cli, "matrix_algebra",
                        lambda *args: built.append(args))
    cache = tmp_path / "cache"
    assert cli.main(["compute", "--algebra", "dual", "--maps", "TRACE",
                     "--matrix-size", "30", "--max-degree", "2",
                     "--cache", str(cache), "--out", str(tmp_path)]) == 3
    assert "CHH degree 1 needs 3240000 basis columns" in capsys.readouterr().err
    assert not cache.exists()
    assert built == []


@pytest.mark.parametrize("size,over", [
    # M_20(dual) has dimension 800: CL_2 over it needs 800^2 columns
    (20, "CL degree 2 needs 640000 basis columns"),
    # M_5(dual) has dimension 50: CL_3 over it needs 50^3
    (5, "CL degree 3 needs 125000 basis columns"),
])
def test_verify_refuses_an_over_bound_lift_before_any_suite(
        tmp_path, capsys, monkeypatch, size, over):
    """At N >= 3 the matrices suite lifts P(dual) into CL(M_N(dual)) to
    degree 3; an N at which that exceeds the bound is refused on the
    dimension N^2 dim(dual) before any suite runs."""
    ran = []
    monkeypatch.setattr(cli, "run_suite", lambda *args: ran.append(args))
    cache = tmp_path / "cache"
    assert cli.main(["verify", "--suite", "matrices", "--matrix-size",
                     str(size), "--cache", str(cache),
                     "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: %s, bound is 100000\n" % over
    assert not cache.exists() and ran == []
    # the bound is the session's, and only the matrices suite lifts
    assert check_matrix_size_for(("matrices",), 4, 100000) is None
    assert check_matrix_size_for(("core", "relative"), size, 100000) is None
    with pytest.raises(ResourceBoundExceeded, match="CL degree 3 needs 5832"):
        check_matrix_size_for(("matrices",), 3, 5000)


def test_compute_refuses_p_kahler_on_an_algebra_file_before_any_table(
        tmp_path, capsys):
    path = tmp_path / "dual.json"
    save_algebra(builtin_algebra("dual"), str(path))
    cache = tmp_path / "cache"
    assert cli.main(["compute", "--algebra", str(path), "--complex", "CL",
                     "--maps", "P_KAHLER", "--cache", str(cache),
                     "--out", str(tmp_path / "out")]) == 2
    assert "P_KAHLER needs a presented algebra" in capsys.readouterr().err
    assert not cache.exists()


def test_compute_runs_the_map_builder_the_module_holds(tmp_path,
                                                       monkeypatch):
    # the builder is looked up when the map is built, so a patched one
    # (a profiler's wrapper, say) is the one that runs
    calls = []
    real = cmaps.phi

    def spy(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cmaps, "phi", spy)
    assert cli.main(["compute", "--algebra", "dual", "--maps", "PHI",
                     "--max-degree", "2", "--out", str(tmp_path)]) == 0
    assert calls == ["dual"]


@pytest.mark.parametrize("args", [
    ("compute", "--algebra", "{dir}", "--complex", "CL"),
    ("compute", "--algebra", "dual", "--complex", "CL", "--cache", "{file}"),
    ("verify", "--suite", "degree0", "--cutoff", "2", "--cache", "{file}"),
])
def test_file_system_errors_exit_2(tmp_path, args):
    # a directory as the algebra file, a file as the cache directory
    (tmp_path / "plain").write_text("")
    fill = {"dir": str(tmp_path), "file": str(tmp_path / "plain")}
    r = run_cli(*[a.format(**fill) for a in args],
                "--out", str(tmp_path / "out"))
    assert r.returncode == 2
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_compute_algebra_from_file_hashes_input(tmp_path):
    src = tmp_path / "alg.json"
    save_algebra(builtin_algebra("cyclic:2"), str(src))
    out = tmp_path / "out"
    r = run_cli("compute", "--algebra", str(src), "--complex", "CHH",
                "--max-degree", "3", "--out", str(out))
    assert r.returncode == 0, r.stderr
    man = json.loads((out / "manifest.json").read_text())
    assert str(src) in man["inputs"]
    assert len(man["inputs"][str(src)]) == 64
    # the file format carries no group block, so the loaded copy does not
    # qualify for the group-only complexes
    r = run_cli("compute", "--algebra", str(src), "--complex", "BAR",
                "--out", str(out))
    assert r.returncode == 2


@pytest.mark.parametrize("table", [
    [[0, 0, 5]],
    [[0, 0, [[0, "1"]]], [0, 0, []]],
])
def test_a_malformed_algebra_file_is_an_input_error(tmp_path, capsys, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "dim": 1, "basis": ["1"],
                                "unit": ["1"], "table": table}))
    out = tmp_path / "out"
    assert cli.main(["algebra", "validate", str(path)]) == 2
    assert cli.main(["compute", "--algebra", str(path), "--complex", "CL",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_compute_refuses_an_algebra_that_fails_validation(tmp_path):
    # b a = a and nothing else: associativity fails at (b, b, a) and the
    # declared unit a is no unit; its CHH "betti" numbers come out negative
    bad = tmp_path / "nonassoc.json"
    bad.write_text(json.dumps({
        "name": "nonassoc", "dim": 2, "basis": ["a", "b"],
        "unit": ["1", "0"], "table": [[1, 0, [[0, "1"]]]]}))
    r = run_cli("algebra", "validate", str(bad))
    assert r.returncode == 1
    out = tmp_path / "out"
    r = run_cli("compute", "--algebra", str(bad), "--complex", "CHH,CL",
                "--max-degree", "3", "--out", str(out))
    assert r.returncode == 1
    assert "associativity fails" in r.stderr and "unit axiom fails" in r.stderr
    assert not out.exists()


def test_verify_single_suite(tmp_path):
    out = tmp_path / "v"
    r = run_cli("verify", "--suite", "degree0", "--cutoff", "3",
                "--matrix-size", "2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    rep = json.loads((out / "report.json").read_text())
    assert rep["totals"]["fail"] == 0
    assert rep["suites"][0]["suite"] == "degree0"
    assert "pass" in r.stdout


def test_verify_unknown_suite_and_bad_config(tmp_path):
    out = str(tmp_path / "v")
    assert run_cli("verify", "--suite", "nope", "--out", out).returncode == 2
    assert run_cli("verify", "--suite", "core", "--cutoff", "1",
                   "--out", out).returncode == 2


def test_verify_debug_break_phi_fails(tmp_path):
    out = tmp_path / "v"
    r = run_cli("verify", "--suite", "core", "--cutoff", "3", "--matrix-size",
                "2", "--debug-break-phi", "--out", str(out))
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    rep = json.loads((out / "report.json").read_text())
    assert rep["totals"]["fail"] > 0


def test_verify_reports_byte_identical_across_runs(tmp_path):
    # timing lives in the manifest, so report.json must repeat exactly;
    # a shared cache directory flips the manifest counters from writes to hits
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        r = run_cli("verify", "--suite", "degree0", "--cutoff", "3",
                    "--matrix-size", "2", "--seed", "42", "--cache",
                    str(cache), "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert (out1 / "report.json").read_bytes() == \
        (out2 / "report.json").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["cache"]["writes"] > 0 and m1["cache"]["hits"] == 0
    assert m2["cache"]["hits"] > 0 and m2["cache"]["writes"] == 0
    # the peak RSS goes to the manifest only, beside the wall time
    for man in (m1, m2):
        assert isinstance(man["peak_rss_mb"], float) and man["peak_rss_mb"] > 0
    assert b"peak_rss_mb" not in (out1 / "report.json").read_bytes()


def test_truncated_cache_file_is_rejected_and_rewritten(tmp_path):
    cdir = tmp_path / "cache"

    def compute(out):
        r = run_cli("compute", "--algebra", "dual", "--complex", "CHH",
                    "--max-degree", "3", "--cache", str(cdir),
                    "--out", str(tmp_path / out))
        assert r.returncode == 0, r.stderr
        rep = json.loads((tmp_path / out / "report.json").read_text())
        man = json.loads((tmp_path / out / "manifest.json").read_text())
        return rep["tables"][0]["betti"], man

    assert compute("cold")[0] == [2, 1, 1]
    [path] = cdir.glob("*.CHH.3.bnd")
    good = path.read_bytes()
    path.write_bytes(good[:-8])  # the last two palette indices cut
    betti, man = compute("warm")
    assert betti == [2, 1, 1]
    assert man["cache_rejects"] == 1 and man["cache"]["writes"] == 1
    assert path.read_bytes() == good


def _format_1(fingerprint, kind, n, mat):
    """The bytes a format-1 cache wrote for d_n, and the sha256 of its body:
    sorted "row col value" lines under an ASCII header."""
    entries = sorted((r, c, v) for c, col in enumerate(mat.columns)
                     for r, v in col.items())
    body = "".join("%d %d %s\n" % (r, c, Fraction(v)) for r, c, v in entries)
    digest = hashlib.sha256(body.encode()).hexdigest()
    return ("leibhom-boundary 1 %s %s %d %d %d %d %s\n%s" % (
        fingerprint, kind, n, mat.rows, mat.cols, len(entries), digest,
        body)).encode(), digest


def test_a_format_1_cache_file_is_rewritten_and_an_old_rank_record_ignored(
        tmp_path):
    """A boundary file of the text format 1 is rejected and rewritten as
    format 4, with its rank. A .rank record an older version wrote next to
    it is never read, and a warm run writes nothing. The report is the one
    a run without a cache gives."""
    A = builtin_algebra("dual")
    fp = A.fingerprint()
    cdir = tmp_path / "cache"

    def compute(out, *cache):
        r = run_cli("compute", "--algebra", "dual", "--complex", "CHH",
                    "--max-degree", "3", *cache, "--out", str(tmp_path / out))
        assert r.returncode == 0, r.stderr
        man = json.loads((tmp_path / out / "manifest.json").read_text())
        return ((tmp_path / out / "report.json").read_bytes(),
                man["cache"], man["cache_rejects"])

    plain = compute("plain")[0]
    assert compute("cold", "--cache", str(cdir))[0] == plain
    bnd = cache.boundary_path(str(cdir), fp, "CHH", 3)
    good = open(bnd, "rb").read()
    counts = {"hits": 0, "misses": 0, "writes": 0, "rejects": 0}
    mat, rank = cache.load_boundary(str(cdir), fp, "CHH", 3, 8, 16, counts)
    old, old_digest = _format_1(fp, "CHH", 3, mat)
    with open(bnd, "wb") as fh:
        fh.write(old)
    # a rank record of the old format, naming a wrong rank
    record = cdir / (os.path.basename(bnd)[:-len(".bnd")] + ".rank")
    stale = ("leibhom-rank 1 %s CHH 3 8 16 %s %d 0\n"
             % (fp, old_digest, rank - 1)).encode()
    record.write_bytes(stale)
    report, boundaries, rejects = compute("migrate", "--cache", str(cdir))
    assert report == plain
    assert (boundaries, rejects) == ({"hits": 2, "misses": 0, "writes": 1}, 1)
    assert open(bnd, "rb").read() == good
    files = {path.name: path.read_bytes() for path in cdir.iterdir()}
    assert compute("warm", "--cache", str(cdir))[1:] == (
        {"hits": 3, "misses": 0, "writes": 0}, 0)
    assert {path.name: path.read_bytes() for path in cdir.iterdir()} == files


def test_compute_reports_are_the_same_plain_cold_and_warm(tmp_path):
    """A cold cache run writes each table boundary with its rank; the warm
    run reads all of them back and writes nothing, and all three reports
    agree."""
    cdir = tmp_path / "cache"
    reports, counts = [], []
    for out, cache in (("plain", []), ("cold", ["--cache", str(cdir)]),
                       ("warm", ["--cache", str(cdir)])):
        r = run_cli("compute", "--algebra", "dual", "--complex",
                    "CL,CHH,CLAMBDA", "--max-degree", "4", *cache,
                    "--out", str(tmp_path / out))
        assert r.returncode == 0, r.stderr
        reports.append((tmp_path / out / "report.json").read_bytes())
        man = json.loads((tmp_path / out / "manifest.json").read_text())
        assert "rank_cache" not in man
        counts.append(man["cache"])
    assert reports[0] == reports[1] == reports[2]
    files = list(cdir.iterdir())
    assert len(files) == 12 and all(f.suffix == ".bnd" for f in files)
    assert all(f.read_bytes().split(b"\n")[1].isdigit() for f in files)
    assert counts == [{"hits": 0, "misses": 0, "writes": 0},
                      {"hits": 0, "misses": 12, "writes": 12},
                      {"hits": 12, "misses": 0, "writes": 0}]


def test_cache_env_var_used(tmp_path):
    cdir = tmp_path / "envcache"
    out = tmp_path / "out"
    r = run_cli("verify", "--suite", "degree0", "--cutoff", "3",
                "--matrix-size", "2", "--out", str(out),
                env_extra={"LEIBHOM_CACHE_DIR": str(cdir)})
    assert r.returncode == 0, r.stderr
    assert cdir.exists() and any(cdir.iterdir())


def test_console_script_entry_point():
    from leibhom.cli import main
    assert main(["algebra", "list"]) == 0
