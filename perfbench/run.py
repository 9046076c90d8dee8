"""End-to-end benchmark of the leibhom command line.

Each timed run starts the CLI in a fresh interpreter, one process at a time,
single-threaded, exactly as a user would, and times it from process start to
exit. Before and after each CLI run it runs `refwork.py`, a fixed piece of
exact elimination that does not use leibhom, and reports the CLI's time as a
multiple of that reference: the machine's speed drifts by up to 2x within
minutes on a shared host, and the ratio cancels that drift. Set-up
(byte-compiling the package and generating the workload's inputs) is timed
on its own. With `--trace 1` the timed runs are followed by
one run under `tracer.py`, whose spans give the per-layer metrics.

    python3 perfbench/run.py --workload battery_c4_warm --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only when every output
checked out: exit code 0, no failed check, and a report.json whose digest
matches the one recorded in expected.json. Everything the benchmark writes
goes under .bench_build/perfbench in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
EXPECTED = json.loads((HERE / "expected.json").read_text())

BUILD_REPEATS = 3
RUN_TIMEOUT_S = 170
# wall seconds of one refwork.py run on the 2-vCPU Xeon the benchmark was
# defined on, when quiet; setup_s is set-up time at that machine speed
REF_SECONDS = 0.75

GL_FILE = "gl2dual.json"
CACHE_DIR = "cache"
MAKE_GL = ("import sys\n"
           "from leibhom.algebra import builtin_algebra, matrix_algebra\n"
           "from leibhom.serialize import save_algebra\n"
           "save_algebra(matrix_algebra(builtin_algebra('dual'), 2), "
           "sys.argv[1])\n")

# name -> (CLI arguments, whether --seed is passed on). {gl} and {cache}
# name the inputs that set-up generates.
WORKLOADS = {
    "battery_c4_warm": (["verify", "--suite", "all", "--cutoff", "4",
                         "--matrix-size", "3", "--cache", "{cache}"], True),
    "betti_gl2dual_cl5": (["compute", "--algebra", "{gl}", "--complex",
                           "CL", "--max-degree", "5"], False),
    "induced_maps_c3": (["compute", "--algebra", "cyclic:3", "--complex",
                         "CL,CHH,CLAMBDA", "--maps", "PHI,PROJ_I,BAR_IOTA",
                         "--max-degree", "6"], False),
}

END_TO_END = {"wall_rel": "x", "setup_s": "s", "peak_rss_mb": "MB",
              "ok_ratio": "ratio"}
# raw times of the same runs; printed with the per-layer metrics
RAW_TIMES = {"wall_s": "s", "ref_s": "s", "setup_raw_s": "s"}


class CheckFailed(Exception):
    pass


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def child_env():
    env = dict(os.environ)
    env.pop("LEIBHOM_CACHE_DIR", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(BUILD / "pycache")
    return env


def run_process(cmd, log):
    """Run cmd to completion; (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "w") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=fh)
        killer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def report_digests(path, seed):
    """(sha256 of report.json, sha256 with the seed echo normalised away)."""
    raw = Path(path).read_bytes()
    report = json.loads(raw)
    for suite in report.get("suites", []):
        if suite["config"]["seed"] != seed:
            raise CheckFailed("report echoes seed %r, ran with %d"
                              % (suite["config"]["seed"], seed))
        suite["config"]["seed"] = 0
        suite["environment_hash"] = ""
    canon = json.dumps(report, indent=2, sort_keys=True) + "\n"
    return (hashlib.sha256(raw).hexdigest(),
            hashlib.sha256(canon.encode()).hexdigest())


class Workload:
    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.expected = EXPECTED["workloads"][name]
        args, seeded = WORKLOADS[name]
        self.inputs = {"gl": str(workdir / GL_FILE),
                       "cache": str(workdir / CACHE_DIR)}
        self.argv = [a.format(**self.inputs) for a in args]
        if seeded:
            self.argv += ["--seed", str(seed)]
        self.input_digests = {}
        self.runs = 0

    def uses(self, placeholder):
        return placeholder in WORKLOADS[self.name][0]

    # -- set-up -----------------------------------------------------------

    def _step(self, cmd, what):
        code, _, _ = run_process(cmd, self.workdir / "setup.log")
        if code != 0:
            raise CheckFailed("set-up step %s exited %d" % (what, code))

    def build(self):
        """Byte-compile the package and start the CLI once; returns seconds."""
        start = time.perf_counter()
        self._step([sys.executable, "-m", "compileall", "-q", "-f",
                    str(SRC / "leibhom")], "compile")
        self._step([sys.executable, "-m", "leibhom", "algebra", "list"],
                   "import")
        return time.perf_counter() - start

    def make_inputs(self):
        """Generate the workload's inputs and check them; returns seconds."""
        start = time.perf_counter()
        if self.uses("{gl}"):
            self._step([sys.executable, "-c", MAKE_GL, self.inputs["gl"]],
                       "matrix algebra input")
        if self.uses("{cache}"):
            # a cold run fills the cache and pays its write path
            self.run_cli(cold=True)
        elapsed = time.perf_counter() - start
        self.check_inputs()
        return elapsed

    def check_inputs(self):
        if self.uses("{gl}"):
            digest = sha256_file(self.inputs["gl"])
            self.input_digests[GL_FILE] = digest
            if digest != EXPECTED["gl2dual_sha256"]:
                raise CheckFailed("generated %s has sha256 %s" % (GL_FILE, digest))
        if self.uses("{cache}"):
            files = list(Path(self.inputs["cache"]).glob("*.bnd"))
            if len(files) != self.expected["cache_files"]:
                raise CheckFailed("cache holds %d .bnd files, want %d"
                                  % (len(files), self.expected["cache_files"]))

    # -- runs -------------------------------------------------------------

    def run_ref(self):
        """One run of the reference work, checked; returns wall seconds."""
        log = self.workdir / "ref.log"
        code, wall, _ = run_process(
            [sys.executable, str(HERE / "refwork.py")], log)
        if code != 0 or log.read_text().strip() != str(EXPECTED["ref_rank"]):
            raise CheckFailed("reference work exited %d with %r"
                              % (code, log.read_text()[-200:]))
        return wall

    def run_cli(self, traced=False, cold=False):
        """One CLI run, checked; returns (wall seconds, peak RSS MB, trace path)."""
        self.runs += 1
        out = self.workdir / ("run%d" % self.runs)
        trace = out / "trace.json"
        out.mkdir(parents=True)
        if traced:
            launcher = [sys.executable, str(HERE / "tracer.py"), str(trace), "--"]
        else:
            launcher = [sys.executable, "-m", "leibhom"]
        code, wall, rss = run_process(
            launcher + self.argv + ["--out", str(out)], out / "stdout.log")
        if code != 0:
            raise CheckFailed("run %d exited %d" % (self.runs, code))
        try:
            self.check_outputs(out, cold)
        except (OSError, ValueError, KeyError) as exc:
            raise CheckFailed("run %d left unreadable outputs: %s"
                              % (self.runs, exc))
        return wall, rss, trace

    def check_outputs(self, out, cold):
        report = json.loads((out / "report.json").read_text())
        if "totals" in report and report["totals"]["fail"]:
            raise CheckFailed("%d checks failed" % report["totals"]["fail"])
        for rep in report.get("maps", []):
            if rep.get("chain_map_verified") is False:
                raise CheckFailed("map %s is not a chain map" % rep["map"])
        raw, seedless = report_digests(out / "report.json", self.seed)
        want = self.expected
        if "seedless_sha256" in want:
            if seedless != want["seedless_sha256"]:
                raise CheckFailed("report.json digest %s differs" % seedless)
            if self.seed == 0 and raw != want["report_sha256"]:
                raise CheckFailed("report.json sha256 %s differs" % raw)
        elif raw != want["report_sha256"]:
            raise CheckFailed("report.json sha256 %s differs" % raw)
        if self.uses("{cache}"):
            files = want["cache_files"]
            got = json.loads((out / "manifest.json").read_text())["cache"]
            if got != ({"hits": 0, "misses": files, "writes": files} if cold
                       else {"hits": files, "misses": 0, "writes": 0}):
                raise CheckFailed("%s run has cache counters %s"
                                  % ("cold" if cold else "warm", got))


def measure(name, seed, seconds, trace):
    workdir = BUILD / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    wl = Workload(name, seed, workdir)
    builds = []
    inputs_s = setup_rel = 0.0
    walls, refs, rels, rss, oks = [], [], [], [], []
    layers = {}
    error = None
    try:
        # set-up steps are bracketed by reference runs like the CLI runs
        refs.append(wl.run_ref())
        for _ in range(BUILD_REPEATS):
            builds.append(wl.build())
        refs.append(wl.run_ref())
        inputs_s = wl.make_inputs()
        refs.append(wl.run_ref())
        setup_rel = (statistics.median(builds) / statistics.mean(refs[0:2])
                     + inputs_s / statistics.mean(refs[1:3]))
        # start a run only if it and the reference after it should end inside
        # the measured window, so a slow workload does not overrun it
        start = time.perf_counter()
        while not oks or (time.perf_counter() - start + (
                statistics.median(walls) + statistics.median(refs)
                if walls else 0.0) < seconds):
            try:
                wall, peak, _ = wl.run_cli()
            except CheckFailed as exc:
                print("check failed: %s" % exc, file=sys.stderr)
                oks.append(False)
                continue
            refs.append(wl.run_ref())
            walls.append(wall)
            rels.append(wall / statistics.mean(refs[-2:]))
            rss.append(peak)
            oks.append(True)
        if trace and walls:
            wall, _, trace_file = wl.run_cli(traced=True)
            oks.append(True)
            layers = tracer.layer_metrics(json.loads(trace_file.read_text()),
                                          wall, statistics.median(walls))
    except CheckFailed as exc:
        error = str(exc)
        print("check failed: %s" % exc, file=sys.stderr)

    attempted = max(len(oks) + (error is not None), 1)
    failed = oks.count(False) + (error is not None)
    if trace:
        layers["wall_s"] = statistics.median(walls) if walls else 0.0
        layers["ref_s"] = statistics.median(refs) if refs else 0.0
        layers["setup_raw_s"] = (statistics.median(builds) + inputs_s
                                 if builds else 0.0)
        metrics = {k: {"value": layers.get(k, 0.0), "unit": u}
                   for k, u in {**tracer.METRICS, **RAW_TIMES}.items()}
    else:
        values = {
            "wall_rel": statistics.median(rels) if rels else 0.0,
            "setup_s": setup_rel * REF_SECONDS,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
            "ok_ratio": oks.count(True) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "argv": wl.argv, "environment": environment(),
              "inputs": wl.input_digests, "build_s": builds,
              "inputs_s": inputs_s, "setup_rel": setup_rel,
              "wall_s": walls, "ref_s": refs, "wall_rel": rels,
              "peak_rss_mb": rss, "error": error,
              "result": result}
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (name, seed, trace))).write_text(
        json.dumps(record, indent=2) + "\n")
    return record


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "leibhom").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (SRC / "leibhom" / "cli.py").is_file():
        print("error: no leibhom sources under %s" % SRC, file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {n: measure(n, args.seed, args.seconds, args.trace)
               for n in names}
    print("environment: %s" % json.dumps(records[names[0]]["environment"]))
    for name, rec in records.items():
        res = rec["result"]
        print("%s: %s, %d attempted, %d failed"
              % (name, "correct" if res["correct"] else "INCORRECT",
                 res["attempted"], res["failed"]))
        for metric, m in res["metrics"].items():
            print("  %-36s %14.6f %s" % (metric, m["value"], m["unit"]))
    if args.workload == "all":
        print(json.dumps({n: r["result"] for n, r in records.items()}))
    else:
        print(json.dumps(records[names[0]]["result"]))
    return 0 if all(r["result"]["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
