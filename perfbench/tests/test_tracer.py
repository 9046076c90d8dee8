"""Tests for the benchmark's tracer.

    python3 -m pytest -q perfbench/tests
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import tracer  # noqa: E402
from leibhom import cli, homology, linalg, suites  # noqa: E402
from leibhom.algebra import builtin_algebra  # noqa: E402
from leibhom.complexes import build_complex  # noqa: E402

SMALL = ["compute", "--algebra", "dual", "--complex", "CL,CHH",
         "--maps", "PHI", "--max-degree", "3"]


def test_rank_boundary_call_is_recorded_under_linalg():
    C = build_complex(builtin_algebra("dual"), "CHH", 3)
    original = linalg.rank_only
    tr = tracer.Tracer().install()
    try:
        for module in (homology, suites, cli):
            assert module.rank_only is not original
        C.rank_boundary(2)
    finally:
        tr.uninstall()
    for module in (homology, suites, cli):
        assert module.rank_only is original
    assert [s[0] for s in tr.spans] == ["linalg.rank_only"]
    assert tr.counts["linalg.rank_calls"] == 1
    assert tr.counts["linalg.rank_columns"] == C.dims[2]
    metrics = tracer.layer_metrics(tr.dump(), 1.0, 1.0)
    assert metrics["linalg.self_s"] == metrics["linalg.rank_s"] > 0


def test_nested_self_times_sum_to_parent_span():
    ticks = itertools.count()
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))
    leaf = tr.timed("linalg.leaf", lambda: 1)
    inner = tr.timed("homology.inner", lambda: leaf() + leaf())
    outer = tr.timed("suites.outer", lambda: inner() + inner() + leaf())
    assert outer() == 5
    spans = tr.spans
    own = tracer.self_times(spans)
    for i, (_, start, end, _) in enumerate(spans):
        children = sum(e - s for _, s, e, p in spans if p == i)
        assert own[i] + children == end - start
    root = spans[0]
    assert root[3] == -1
    assert sum(own) == root[2] - root[1]
    wall = root[2] - root[1] + 3.0
    metrics = tracer.layer_metrics(tr.dump(), wall, wall)
    layers = sum(metrics["%s.self_s" % layer] for layer in tracer.LAYERS)
    assert layers + metrics["other_s"] == wall
    assert metrics["other_s"] == 3.0
    assert tracer.outermost_total(spans, ("linalg.leaf", "homology.inner")) \
        == sum(e - s for n, s, e, p in spans
               if n == "homology.inner" or (n == "linalg.leaf" and p == 0))


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_traced_report_matches_untraced(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LEIBHOM_CACHE_DIR", None)
    plain = subprocess.run(
        [sys.executable, "-m", "leibhom"] + SMALL + ["--out", str(tmp_path / "a")],
        env=env, capture_output=True, timeout=120)
    trace = tmp_path / "trace.json"
    traced = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(trace), "--"] + SMALL
        + ["--out", str(tmp_path / "b")],
        env=env, capture_output=True, timeout=120)
    assert plain.returncode == 0 and traced.returncode == 0, traced.stderr
    assert _sha256(tmp_path / "a" / "report.json") == \
        _sha256(tmp_path / "b" / "report.json")

    dump = json.loads(trace.read_text())
    roots = [s for s in dump["spans"] if s[3] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    wall = roots[0][2] - roots[0][1] + 0.5
    metrics = tracer.layer_metrics(dump, wall, wall)
    assert set(metrics) == set(tracer.METRICS)
    layers = sum(metrics["%s.self_s" % layer] for layer in tracer.LAYERS)
    assert layers + metrics["other_s"] == pytest.approx(wall)
    assert metrics["homology.solvers_built"] > 0
    assert metrics["complexes.columns_generated"] > 0
    assert metrics["cache.load_s"] == 0


def test_benchmark_json_names_every_metric():
    import run
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert ({m["name"]: m["unit"] for m in bench["per_layer"]}
            == {**tracer.METRICS, **run.RAW_TIMES})
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
