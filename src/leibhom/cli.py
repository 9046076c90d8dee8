"""Batch command line surface.

Three subcommands: `algebra` (list/validate/inspect), `compute` (betti tables
and induced-map ranks for one algebra), and `verify` (run the bundled
suites). Every run writes report.json (stable key order, no timing fields),
report.md (the same content as tables), and manifest.json (command echo,
input hashes, cache counters, wall time). Exit codes: 0 success, 1 a
verification check failed, 2 usage or input error, 3 resource bound exceeded.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from .algebra import (BUILTIN_NAMES, builtin_algebra, matrix_algebra,
                      validate_algebra)
from .complexes import (DEFAULT_MAX_DIM, KINDS, KahlerModule,
                        ResourceBoundExceeded, Session, basis_labels,
                        build_complex)
from .homology import induced_map, verify_chain_map
from .linalg import rank_only
from .serialize import FormatError, load_algebra
from . import chain_maps as cmaps
from .suites import (SUITE_IDS, SuiteConfig, lift_identities, run_all,
                     run_suite)

CACHE_ENV = "LEIBHOM_CACHE_DIR"

MAP_TOKENS = ("PHI", "THETA", "EPSILON", "PROJ_LIE", "PROJ_ADJ", "PROJ_I",
              "P_KAHLER", "TRACE", "CORNER", "LIFT_P", "THETA_NF", "BAR_PI",
              "BAR_IOTA", "EMBED_CY")

# token -> (builder, source kind, target kind) for the maps built as
# builder(A, source complex, target complex) over A itself
_PLAIN_MAPS = {
    "PHI": (cmaps.phi, "CL", "CHH"),
    "THETA": (cmaps.theta, "CE", "CLAMBDA"),
    "EPSILON": (cmaps.epsilon, "CE_ADJ", "CHH"),
    "PROJ_LIE": (cmaps.proj_lie, "CL", "CE"),
    "PROJ_ADJ": (cmaps.proj_adjoint, "CL", "CE_ADJ"),
    "PROJ_I": (cmaps.proj_I, "CHH", "CLAMBDA"),
    "BAR_PI": (cmaps.bar_pi, "CHH", "BAR"),
    "BAR_IOTA": (cmaps.bar_iota, "BAR", "CHH"),
    "EMBED_CY": (cmaps.embed_cy, "CHH", "P"),
}


class UsageError(Exception):
    pass


def _build_parser():
    p = argparse.ArgumentParser(
        prog="leibhom",
        description="Exact rational homology of finite-dimensional algebras: "
                    "Leibniz, Hochschild, cyclic, and their comparison maps.")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("algebra", help="catalogue, validation, inspection")
    suba = pa.add_subparsers(dest="sub", required=True)
    suba.add_parser("list", help="list built-in algebras")
    pav = suba.add_parser("validate", help="validate an algebra JSON file")
    pav.add_argument("file")
    pai = suba.add_parser("inspect", help="show dims and basis of a built-in")
    pai.add_argument("name")

    pc = sub.add_parser("compute", help="betti tables and induced-map ranks")
    pc.add_argument("--algebra", required=True,
                    help="built-in name or path to an algebra JSON file")
    pc.add_argument("--complex", default="",
                    help="comma-separated complex kinds (%s)" % ",".join(KINDS))
    pc.add_argument("--max-degree", type=int, default=4)
    pc.add_argument("--maps", default="",
                    help="comma-separated map kinds (%s)" % ",".join(MAP_TOKENS))
    pc.add_argument("--matrix-size", type=int, default=2,
                    help="N for maps through M_N(A)")
    pc.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM,
                    help="per-degree basis size bound")
    pc.add_argument("--dump-labels", action="store_true",
                    help="include basis labels per degree in the JSON report")
    pc.add_argument("--out", default=".")
    pc.add_argument("--cache", default=None,
                    help="boundary cache directory (default $%s)" % CACHE_ENV)

    pv = sub.add_parser("verify", help="run bundled verification suites")
    pv.add_argument("--suite", default="all",
                    help="suite id or 'all' (%s)" % ",".join(SUITE_IDS))
    pv.add_argument("--cutoff", type=int, default=4)
    pv.add_argument("--matrix-size", type=int, default=3)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--max-dim", type=int, default=DEFAULT_MAX_DIM)
    pv.add_argument("--debug-break-phi", action="store_true",
                    help="flip one sign in phi to confirm verification fails")
    pv.add_argument("--out", default=".")
    pv.add_argument("--cache", default=None,
                    help="boundary cache directory (default $%s)" % CACHE_ENV)
    return p


def _sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _resolve_cache(arg):
    cache_dir = arg if arg is not None else os.environ.get(CACHE_ENV)
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
    return cache_dir or None


def _write_outputs(outdir, report, md_lines, argv, config, inputs, t0,
                   counts):
    """Write report.json, report.md and manifest.json once each."""
    os.makedirs(outdir, exist_ok=True)
    paths = {name: os.path.join(outdir, name)
             for name in ("report.json", "report.md", "manifest.json")}
    outputs = sorted(paths.values())
    manifest = {
        "command": argv,
        "config": config,
        "inputs": {p: _sha256_file(p) for p in inputs},
        # "cache" keeps its three keys: perfbench/run.py compares it whole
        "cache": {k: counts[k] for k in ("hits", "misses", "writes")},
        "cache_rejects": counts["rejects"],
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    for name, payload in (("report.json", report), ("manifest.json", manifest)):
        with open(paths[name], "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    with open(paths["report.md"], "w") as fh:
        fh.write("\n".join(md_lines) + "\n")
    print("wrote %s" % ", ".join(outputs))


# ---------------------------------------------------------------------------
# algebra


def cmd_algebra(args):
    if args.sub == "list":
        for name in BUILTIN_NAMES:
            A = builtin_algebra(name)
            flags = []
            if A.commutative:
                flags.append("commutative")
            if A.group_meta is not None:
                flags.append("group algebra")
            print("%-20s dim %2d  %s" % (name, A.dim, ", ".join(flags)))
        return 0
    if args.sub == "validate":
        try:
            A = load_algebra(args.file)
        except (OSError, FormatError) as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 2
        rep = validate_algebra(A)
        print("%s: %s" % (A.name, rep.describe()))
        return 0 if rep.ok else 1
    if args.sub == "inspect":
        A = builtin_algebra(args.name)
        print("name: %s" % A.name)
        print("dim: %d" % A.dim)
        print("basis: %s" % ", ".join(A.basis_names))
        print("commutative: %s" % A.commutative)
        if A.group_meta is not None:
            print("group order: %d" % A.group_meta["order"])
        rep = validate_algebra(A)
        print("axioms: %s" % rep.describe())
        return 0
    raise UsageError("unknown algebra subcommand")


# ---------------------------------------------------------------------------
# compute


def _load_compute_algebra(spec):
    if os.path.exists(spec):
        return load_algebra(spec), [spec]
    return builtin_algebra(spec), []


def _betti_table(A, kind, maxdeg, session):
    C = build_complex(A, kind, maxdeg, session)
    betti = [C.betti(n) for n in range(maxdeg)]
    top_rank = C.rank_boundary(maxdeg)
    table = {
        "kind": kind,
        "dims": list(C.dims),
        "betti": betti,
        "top_degree": {
            "degree": maxdeg,
            "betti_upper_bound": C.dims[maxdeg] - top_rank,
            "boundary_incomplete": True,
        },
    }
    return C, table


def _induced_rows(F):
    rows = []
    top_src = F.source.cutoff - 1
    top_tgt = F.target.cutoff - 1
    for m in sorted(F.maps):
        n = m - F.shift
        if m > top_src or n < 0 or n > top_tgt:
            continue
        mat = induced_map(F, m)
        rows.append({
            "degree": m,
            "source_betti": mat.cols,
            "target_betti": mat.rows,
            "rank": rank_only(mat),
        })
    return rows


def _map_report(A, token, maxdeg, session, N):
    needs_group = token in ("BAR_PI", "BAR_IOTA")
    if needs_group and A.group_meta is None:
        raise UsageError("%s needs a group algebra, %s is not one"
                         % (token, A.name))
    if token == "P_KAHLER" and not A.commutative:
        raise UsageError("P_KAHLER needs a commutative algebra")

    rep = {"map": token}
    if token in ("LIFT_P", "THETA_NF"):
        if N < 3:
            raise UsageError("%s needs --matrix-size at least 3" % token)
        MA = matrix_algebra(A, N)
        pcx = build_complex(A, "P", 2, session)
        clma = build_complex(MA, "CL", 3, session)
        lba = build_complex(A, "L", 3, session)
        lift = cmaps.lift_p(A, MA, pcx, clma)
        ok_round, ok_nf = lift_identities(A, MA, lift, lba)
        rep["evidence"] = "composite_identity"
        rep["identities"] = [
            {"id": "trace_phi_lift_on_standard_cycles",
             "status": "pass" if ok_round else "fail"},
            {"id": "normal_form_inverts_lift",
             "status": "pass" if ok_nf else "fail"},
        ]
        rep["note"] = ("not a chain map on its own; only the listed "
                       "composites are asserted")
        return rep, ok_round and ok_nf

    if token in _PLAIN_MAPS:
        builder, src, tgt = _PLAIN_MAPS[token]
        F = builder(A, build_complex(A, src, maxdeg, session),
                    build_complex(A, tgt, maxdeg, session))
    elif token == "P_KAHLER":
        km = KahlerModule(A)
        F = cmaps.p_kahler(A, km, build_complex(A, "CL", maxdeg, session),
                           cmaps.omega_complex(km, maxdeg))
    elif token == "TRACE":
        MA = matrix_algebra(A, N)
        F = cmaps.trace(MA, A, build_complex(MA, "CHH", maxdeg, session),
                        build_complex(A, "CHH", maxdeg, session))
    elif token == "CORNER":
        MA = matrix_algebra(A, N)
        F = cmaps.corner(A, MA, build_complex(A, "CHH", maxdeg, session),
                         build_complex(MA, "CHH", maxdeg, session))
    else:
        raise UsageError("unknown map kind %r (have %s)"
                         % (token, ", ".join(MAP_TOKENS)))
    ok, wit = verify_chain_map(F, maxdeg)
    rep["evidence"] = "chain_map"
    rep["chain_map_verified"] = ok
    if not ok:
        rep["witness"] = {"degree": wit[0], "column": wit[1]}
    rep["induced_ranks"] = _induced_rows(F)
    return rep, ok


def cmd_compute(args, argv):
    t0 = time.time()
    session = Session(args.max_dim, _resolve_cache(args.cache))
    A, inputs = _load_compute_algebra(args.algebra)
    kinds = [k for k in args.complex.split(",") if k]
    for k in kinds:
        if k not in KINDS:
            print("error: unknown complex kind %r (have %s)"
                  % (k, ", ".join(KINDS)), file=sys.stderr)
            return 2
    tokens = [t for t in args.maps.split(",") if t]
    if not kinds and not tokens:
        print("error: nothing to compute; pass --complex and/or --maps",
              file=sys.stderr)
        return 2
    if args.max_degree < 1:
        print("error: --max-degree must be at least 1", file=sys.stderr)
        return 2
    # an algebra that fails the axioms (only a file can give one) has no
    # homology to report
    validation = validate_algebra(A)
    if not validation.ok:
        print("error: %s: %s" % (A.name, validation.describe()),
              file=sys.stderr)
        return 1

    report = {"algebra": {"name": A.name, "dim": A.dim,
                          "fingerprint": A.fingerprint()},
              "max_degree": args.max_degree,
              "tables": [], "maps": []}
    md = ["# compute report", "",
          "algebra: %s (dim %d)" % (A.name, A.dim),
          "max degree: %d" % args.max_degree, ""]
    failed = False
    if kinds:
        md += ["## Betti tables", ""]
        header = "| complex | " + " | ".join(
            "n=%d" % n for n in range(args.max_degree + 1)) + " |"
        md += [header,
               "|" + "---|" * (args.max_degree + 2)]
    for kind in kinds:
        if kind == "BAR" and A.group_meta is None:
            print("error: BAR needs a group algebra", file=sys.stderr)
            return 2
        C, table = _betti_table(A, kind, args.max_degree, session)
        if args.dump_labels:
            table["labels"] = {str(n): basis_labels(A, kind, n)
                               for n in range(args.max_degree + 1)}
        report["tables"].append(table)
        cells = [str(b) for b in table["betti"]]
        cells.append("<=%d*" % table["top_degree"]["betti_upper_bound"])
        md.append("| %s | %s |" % (kind, " | ".join(cells)))
    if kinds:
        md += ["", "(*) top degree bounded only from above: its boundary "
               "out is not part of the table", ""]
    for token in tokens:
        mrep, ok = _map_report(A, token, args.max_degree, session,
                               args.matrix_size)
        report["maps"].append(mrep)
        failed = failed or not ok
        md += ["## Map %s" % token, ""]
        if mrep.get("evidence") == "chain_map":
            md.append("chain map verified: %s" % mrep["chain_map_verified"])
            md += ["", "| degree | source betti | target betti | rank |",
                   "|---|---|---|---|"]
            for row in mrep["induced_ranks"]:
                md.append("| %d | %d | %d | %d |"
                          % (row["degree"], row["source_betti"],
                             row["target_betti"], row["rank"]))
            md.append("")
        else:
            for ident in mrep["identities"]:
                md.append("- %s: %s" % (ident["id"], ident["status"]))
            md.append("")

    config = {"algebra": args.algebra, "complex": kinds, "maps": tokens,
              "max_degree": args.max_degree, "matrix_size": args.matrix_size,
              "max_dim": args.max_dim, "dump_labels": args.dump_labels}
    _write_outputs(args.out, report, md, argv, config, inputs, t0,
                   session.cache_counts)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# verify


def _suite_md(rep):
    lines = ["## Suite %s" % rep["suite"], "",
             "pass %(pass)d / fail %(fail)d / skipped %(skipped)d"
             % rep["counts"], "",
             "| check | status | detail |", "|---|---|---|"]
    for c in rep["checks"]:
        detail = c["detail"].replace("|", "/")
        lines.append("| %s | %s | %s |" % (c["id"], c["status"], detail))
    lines.append("")
    return lines


def cmd_verify(args, argv):
    t0 = time.time()
    config = SuiteConfig(cutoff=args.cutoff, matrix_size=args.matrix_size,
                         seed=args.seed,
                         session=Session(args.max_dim,
                                         _resolve_cache(args.cache)),
                         debug_break_phi=args.debug_break_phi)
    if args.suite == "all":
        reports = run_all(config)
    elif args.suite in SUITE_IDS:
        reports = [run_suite(args.suite, config)]
    else:
        raise UsageError("unknown suite %r (have %s, all)"
                         % (args.suite, ", ".join(SUITE_IDS)))

    total = {"pass": 0, "fail": 0, "skipped": 0}
    md = ["# verification report", ""]
    for rep in reports:
        for key in total:
            total[key] += rep["counts"][key]
        md += _suite_md(rep)
    report = {"suites": reports, "totals": total}
    cfg_echo = dict(config.as_dict())
    cfg_echo["suite"] = args.suite
    for rep in reports:
        line = "suite %-12s pass %3d fail %3d skipped %3d" % (
            rep["suite"], rep["counts"]["pass"], rep["counts"]["fail"],
            rep["counts"]["skipped"])
        print(line)
        for c in rep["checks"]:
            if c["status"] == "fail":
                print("  FAIL %s  witness=%s" % (c["id"], c.get("witness")))
    _write_outputs(args.out, report, md, argv, cfg_echo, [], t0,
                   config.session.cache_counts)
    return 1 if total["fail"] else 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "algebra":
            return cmd_algebra(args)
        if args.command == "compute":
            return cmd_compute(args, ["leibhom"] + argv)
        if args.command == "verify":
            return cmd_verify(args, ["leibhom"] + argv)
    except (UsageError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceBoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
