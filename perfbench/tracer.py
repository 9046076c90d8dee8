"""Outside-in tracer for the leibhom CLI.

The tracer patches the public functions of every `leibhom` module, in every
module namespace that holds them (a function imported by name, such as
`rank_only` in `homology`, `suites` and `cli`, is patched there too). Each
patched call records a span (name, start, end, parent) in memory; per-element
helpers are left alone, and per-column closures are only counted, so that
tracing stays cheap. Nothing in `src/leibhom` is changed.

Run one traced CLI invocation:

    PYTHONPATH=src python3 perfbench/tracer.py TRACE.json -- verify --suite core

The CLI's exit code is passed through; TRACE.json holds the spans and the
counters once the run ends. `layer_metrics` turns such a file into the
per-layer metrics that `run.py` reports.
"""

import functools
import importlib
import inspect
import json
import os
import pkgutil
import sys
import time
from collections import Counter

# Per-element helpers called up to millions of times per run: a span each
# would cost more than the work, so their time stays in the caller's span.
UNTRACED = frozenset({
    "complexes.tuple_index", "complexes.index_tuple", "complexes.proj_to_wedge",
    "linalg.vec_scaled_add", "linalg.integerize",
    "algebra.multiply_coords", "algebra.bracket_coords",
    "perms.compose", "perms.invert", "perms.sign", "perms.identity_perm",
    "perms.is_cyclic", "perms.cycle_start_sign",
})

# Factories whose returned closure produces one column per call; the calls
# are counted under the given counter, never timed.
COLUMN_FACTORIES = {
    "complexes.boundary_column_fn": "complexes.columns_generated",
    "chain_maps.tr_phi_column_fn": "chain_maps.columns_generated",
    "chain_maps.morphism_tensor_column_fn": "chain_maps.columns_generated",
}

SOLVER_SPAN = "homology.HomologyData._ensure_solver"

SUITE_IDS = ("core", "degree0", "commutative", "matrices", "groupring",
             "relative", "appendix")

LAYERS = ("algebra", "cache", "chain_maps", "cli", "complexes", "homology",
          "linalg", "perms", "serialize", "suites")

# metric -> span names; the metric is the total duration of the outermost
# spans among those names (a span nested in another of the set adds nothing)
INCLUSIVE = {
    "complexes.d2_streamed_s": ("complexes.verify_d2_streamed",),
    "linalg.rank_s": ("linalg.rank_only",),
    "linalg.rank_kernel_image_s": ("linalg.rank_kernel_image",),
    "homology.solver_build_s": (SOLVER_SPAN,),
    "homology.verify_chain_map_s": ("homology.verify_chain_map",),
    "homology.verify_boundary_squares_s": ("homology.verify_boundary_squares",),
    "homology.streamed_rank_s": ("homology.induced_rank_streamed",
                                 "linalg.blocked_rank"),
    "homology.cone_s": ("homology.mapping_cone", "homology.cone_pair_map",
                        "homology.les_of_cone", "homology.exactness_check"),
    "cache.load_s": ("cache.load_boundary",),
    "cache.save_s": ("cache.save_boundary",),
}
INCLUSIVE.update({"suites.%s_s" % sid: ("suites.suite_%s" % sid,)
                  for sid in SUITE_IDS})

# metric -> span names whose self time (duration minus child spans) it sums
SELF = {
    "complexes.assemble_s": ("complexes.boundary_matrix",),
    "homology.induced_map_s": ("homology.induced_map",),
}

COUNTS = ("complexes.columns_generated", "complexes.nnz_assembled",
          "linalg.rank_calls", "linalg.rank_columns", "homology.solvers_built",
          "homology.class_coords_calls", "homology.streamed_columns",
          "chain_maps.columns_generated", "cache.hits", "cache.misses",
          "cache.writes", "cache.bytes_read", "cache.bytes_written")

# every per-layer metric with its unit, in report order
METRICS = {}
METRICS.update((name, "s") for name in SELF)
METRICS.update((name, "s") for name in INCLUSIVE)
METRICS["chain_maps.build_s"] = "s"
METRICS.update((name, "count") for name in COUNTS)
METRICS.update({"complexes.registry_hit_ratio": "ratio",
                "linalg.rank_repeat_ratio": "ratio",
                "other_s": "s", "trace.wall_s": "s", "trace.overhead_s": "s"})
METRICS.update(("%s.self_s" % layer, "s") for layer in LAYERS)


class Tracer:
    """Spans and counters for one process; `install` patches, `uninstall` undoes."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []      # [name, start, end, parent index or -1]
        self.stack = []      # indices of the open spans, innermost last
        self.counts = Counter()
        self._matrices = {}  # id -> boundary returned by boundary_matrix
        self._assembled = []  # boundaries built from generated columns
        self._ranked = {}    # id -> matrix passed to rank_only
        self._undo = []      # (namespace, key, original), applied in reverse
        self._originals = {}

    # -- wrappers ---------------------------------------------------------

    def timed(self, name, fn, probe=None):
        """`fn` recording one span per call; `probe(fn, args, kwargs)` makes the call."""
        spans, stack, clock = self.spans, self.stack, self.clock

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                if probe is None:
                    return fn(*args, **kwargs)
                return probe(fn, args, kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def counted(self, counter, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- probes: counters taken at the boundary the work passes -----------

    def _column_factory(self, counter):
        def probe(fn, args, kwargs):
            return self.counted(counter, fn(*args, **kwargs))
        return probe

    def _boundary_matrix(self, fn, args, kwargs):
        before = self.counts["complexes.columns_generated"]
        mat = fn(*args, **kwargs)
        self.counts["complexes.boundary_calls"] += 1
        if id(mat) in self._matrices:
            self.counts["complexes.registry_hits"] += 1
        else:
            self._matrices[id(mat)] = mat
            if self.counts["complexes.columns_generated"] > before:
                self._assembled.append(mat)
        return mat

    def _rank_only(self, fn, args, kwargs):
        mat = args[0] if args else kwargs["M"]
        self.counts["linalg.rank_calls"] += 1
        self.counts["linalg.rank_columns"] += mat.cols
        if id(mat) in self._ranked:
            self.counts["linalg.rank_repeats"] += 1
        else:
            self._ranked[id(mat)] = mat
        return fn(*args, **kwargs)

    def _blocked_rank(self, fn, args, kwargs):
        counts = self.counts

        def stream(vectors):
            for vec in vectors:
                counts["homology.streamed_columns"] += 1
                yield vec

        return fn(stream(args[0]), *args[1:], **kwargs)

    def _cache_file(self, fn, args, kwargs):
        bound = inspect.signature(fn).bind(*args, **kwargs).arguments
        return self._originals["cache.boundary_path"](
            bound["cache_dir"], bound["fingerprint"], bound["kind"],
            bound["degree"])

    def _load_boundary(self, fn, args, kwargs):
        mat = fn(*args, **kwargs)
        if mat is None:
            self.counts["cache.misses"] += 1
        else:
            self.counts["cache.hits"] += 1
            self.counts["cache.bytes_read"] += os.path.getsize(
                self._cache_file(fn, args, kwargs))
        return mat

    def _save_boundary(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        self.counts["cache.writes"] += 1
        self.counts["cache.bytes_written"] += os.path.getsize(
            self._cache_file(fn, args, kwargs))
        return out

    # -- patching ---------------------------------------------------------

    def install(self):
        """Patch every public function of the leibhom modules; returns self."""
        pkg = importlib.import_module("leibhom")
        modules = [importlib.import_module("leibhom." + info.name)
                   for info in pkgutil.iter_modules(pkg.__path__)
                   if not info.name.startswith("_")]
        probes = {
            "complexes.boundary_matrix": self._boundary_matrix,
            "linalg.rank_only": self._rank_only,
            "linalg.blocked_rank": self._blocked_rank,
            "cache.load_boundary": self._load_boundary,
            "cache.save_boundary": self._save_boundary,
        }
        for name, counter in COLUMN_FACTORIES.items():
            probes[name] = self._column_factory(counter)

        replace = {}  # id(original) -> wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = "%s.%s" % (layer, attr)
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or name in UNTRACED
                        or inspect.isgeneratorfunction(obj)):
                    continue
                self._originals[name] = obj
                replace[id(obj)] = self.timed(name, obj, probes.get(name))
        for namespace in [vars(pkg)] + [vars(mod) for mod in modules]:
            tables = [namespace] + [v for v in namespace.values()
                                    if isinstance(v, dict)]
            for table in tables:
                for key, obj in list(table.items()):
                    wrapper = replace.get(id(obj))
                    if wrapper is not None:
                        self._undo.append((table, key, obj))
                        table[key] = wrapper

        data = importlib.import_module("leibhom.homology").HomologyData
        ensure = data._ensure_solver
        build = self.timed(SOLVER_SPAN, ensure)
        counts = self.counts

        def ensure_solver(hd):
            if hd._solver is not None:
                return None
            counts["homology.solvers_built"] += 1
            return build(hd)

        coords = self.counted("homology.class_coords_calls", data.class_coords)
        for attr, wrapper in (("_ensure_solver", ensure_solver),
                              ("class_coords", coords)):
            self._undo.append((data, attr, getattr(data, attr)))
            setattr(data, attr, wrapper)
        return self

    def uninstall(self):
        while self._undo:
            target, key, obj = self._undo.pop()
            if isinstance(target, dict):
                target[key] = obj
            else:
                setattr(target, key, obj)

    # -- output -----------------------------------------------------------

    def dump(self):
        counts = dict(self.counts)
        counts["complexes.nnz_assembled"] = sum(m.nnz() for m in self._assembled)
        return {"spans": self.spans, "counts": counts}


def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost_total(spans, names):
    """Total duration of the spans named in `names` with no such ancestor."""
    names = set(names)
    inside = [False] * len(spans)   # span or an ancestor is in `names`
    total = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        outer = parent >= 0 and inside[parent]
        inside[i] = outer or name in names
        if name in names and not outer:
            total += end - start
    return total


def layer_metrics(trace, wall_s, untraced_wall_s):
    """Every per-layer metric from a trace dump and the traced run's wall time."""
    spans, counts = trace["spans"], trace["counts"]
    own = self_times(spans)
    out = {}
    for metric, names in SELF.items():
        out[metric] = sum(t for (n, _, _, _), t in zip(spans, own) if n in names)
    for metric, names in INCLUSIVE.items():
        out[metric] = outermost_total(spans, names)
    out["chain_maps.build_s"] = outermost_total(
        spans, {n for n, _, _, _ in spans if n.startswith("chain_maps.")})
    for metric in COUNTS:
        out[metric] = counts.get(metric, 0)
    calls = counts.get("complexes.boundary_calls", 0)
    out["complexes.registry_hit_ratio"] = (
        counts.get("complexes.registry_hits", 0) / calls if calls else 0.0)
    ranks = counts.get("linalg.rank_calls", 0)
    out["linalg.rank_repeat_ratio"] = (
        counts.get("linalg.rank_repeats", 0) / ranks if ranks else 0.0)
    for layer in LAYERS:
        out["%s.self_s" % layer] = 0.0
    for (name, _, _, _), t in zip(spans, own):
        out["%s.self_s" % name.split(".", 1)[0]] += t
    roots = sum(end - start for _, start, end, parent in spans if parent < 0)
    out["other_s"] = wall_s - roots
    out["trace.wall_s"] = wall_s
    out["trace.overhead_s"] = wall_s - untraced_wall_s
    return out


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <leibhom arguments>",
              file=sys.stderr)
        return 2
    tracer = Tracer().install()
    from leibhom import cli
    try:
        code = cli.main(argv[2:])
    finally:
        tracer.uninstall()
        with open(argv[0], "w") as fh:
            json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
