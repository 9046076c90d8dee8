"""Batch command line surface.

Three subcommands: `algebra` (list/validate/inspect), `compute` (betti tables
and induced-map ranks for one algebra), and `verify` (run the bundled
suites). A `compute` or `verify` run that completes writes its boundary
cache files (Session.save), then report.json (stable key order, no timing
fields), report.md (the same content as tables), and manifest.json (command
echo, config, input hashes, the cache's hits, misses and writes under
"cache" and its rejects under "cache_rejects", wall time, and the process's
peak resident set size as "peak_rss_mb" where the platform reports it); a
run stopped by an error writes none of them. Exit codes: 0 success, 1 a
verification check failed, 2 usage, input or file-system error, 3 resource
bound exceeded.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from .algebra import (BUILTIN_NAMES, builtin_algebra, check_matrix_size,
                      matrix_algebra, validate_algebra)
from .complexes import (DEFAULT_MAX_DIM, KINDS, KahlerModule,
                        ResourceBoundExceeded, Session, basis_labels,
                        boundary_rank, build_complex, check_bounds, degree_dim)
from .homology import NegativeBetti, betti_number, induced_map, verify_chain_map
from .linalg import rank_only
from .serialize import FormatError, load_algebra
from . import chain_maps as cmaps
from .suites import (SUITE_IDS, SuiteConfig, _fmt_wit, check_matrix_size_for,
                     lift_identities, run_suite)

CACHE_ENV = "LEIBHOM_CACHE_DIR"

MAP_TOKENS = ("PHI", "THETA", "EPSILON", "PROJ_LIE", "PROJ_ADJ", "PROJ_I",
              "P_KAHLER", "TRACE", "CORNER", "LIFT_P", "BAR_PI", "BAR_IOTA",
              "EMBED_CY")

# token -> (builder, source, target): chain_maps.<builder>(algebras, source
# complex, target complex), looked up by name at call time so that a patched
# one is seen. A side is (algebra, kind), "A" the input and "M" M_N(A); a map
# between the two takes both algebras, source first.
_MAPS = {
    "PHI": ("phi", ("A", "CL"), ("A", "CHH")),
    "THETA": ("theta", ("A", "CE"), ("A", "CLAMBDA")),
    "EPSILON": ("epsilon", ("A", "CE_ADJ"), ("A", "CHH")),
    "PROJ_LIE": ("proj_lie", ("A", "CL"), ("A", "CE")),
    "PROJ_ADJ": ("proj_adjoint", ("A", "CL"), ("A", "CE_ADJ")),
    "PROJ_I": ("proj_I", ("A", "CHH"), ("A", "CLAMBDA")),
    "TRACE": ("trace", ("M", "CHH"), ("A", "CHH")),
    "CORNER": ("corner", ("A", "CHH"), ("M", "CHH")),
    "LIFT_P": ("lift_p", ("A", "P"), ("M", "CL")),
    "BAR_PI": ("bar_pi", ("A", "CHH"), ("A", "BAR")),
    "BAR_IOTA": ("bar_iota", ("A", "BAR"), ("A", "CHH")),
    "EMBED_CY": ("embed_cy", ("A", "CHH"), ("A", "P")),
}


def _map_complexes(token, maxdeg):
    """(algebra, kind, cutoff) of each complex `token` builds, in order."""
    if token == "P_KAHLER":
        return [("A", "CL", maxdeg)]
    src, tgt = _MAPS[token][1:]
    if token == "LIFT_P":
        # the lift of the 2-cycles lands in CL_3(M_N(A))
        return [src + (2,), tgt + (3,)]
    return [src + (maxdeg,), tgt + (maxdeg,)]


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


def _session(max_dim, cache_arg):
    """The run's Session, its cache directory not made yet (_make_cache)."""
    return Session(max_dim, (cache_arg if cache_arg is not None
                             else os.environ.get(CACHE_ENV)) or None)


def _make_cache(session):
    # called once every setting is accepted, so a refused run leaves no
    # directory behind, and before any work, so a bad path fails first
    if session.cache_dir:
        os.makedirs(session.cache_dir, exist_ok=True)


def _write_outputs(outdir, report, md_lines, argv, config, inputs, t0,
                   session):
    """Write the session's cache files, then report.json, report.md and
    manifest.json once each."""
    session.save()
    counts = session.cache_counts
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
    try:  # imported after the work, so that loading it adds nothing to the peak
        import resource
    except ImportError:  # no getrusage on this platform: the manifest omits it
        pass
    else:  # ru_maxrss counts KiB on Linux, bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        manifest["peak_rss_mb"] = round(
            peak / (1 << (20 if sys.platform == "darwin" else 10)), 2)
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
    """The betti table of one kind, its boundaries ranked by boundary_rank."""
    dims = [degree_dim(A, kind, n) for n in range(maxdeg + 1)]
    ranks = [0] + [boundary_rank(A, kind, n, session)
                   for n in range(1, maxdeg + 1)]
    return {
        "kind": kind,
        "dims": dims,
        "betti": [betti_number(kind, n, dims[n], ranks[n], ranks[n + 1])
                  for n in range(maxdeg)],
        "top_degree": {
            "degree": maxdeg,
            "betti_upper_bound": dims[maxdeg] - ranks[maxdeg],
            "boundary_incomplete": True,
        },
    }


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
            "rank": rank_only(mat)[0],
        })
    return rows


def _check_prerequisites(A, kinds, tokens, N, maxdeg, max_dim):
    """Refuse a kind or map the algebra or --matrix-size cannot serve, and a
    degree over the bound of any complex the run builds, over A or M_N(A).
    Returns the algebras by name, M_N(A) built only if a map needs it."""
    for token in tokens:
        if token == "P_KAHLER" and not A.commutative:
            raise UsageError("P_KAHLER needs a commutative algebra")
        if token == "P_KAHLER" and A.presentation is None:
            # an algebra file carries none: only the built-ins are presented
            raise UsageError("P_KAHLER needs a presented algebra, %s has no "
                             "presentation" % A.name)
        if token == "LIFT_P" and N < 3:
            raise UsageError("LIFT_P needs --matrix-size at least 3")
    sized = [("A", kind, maxdeg) for kind in kinds] + [
        cx for token in tokens for cx in _map_complexes(token, maxdeg)]
    needs_m = any(alg == "M" for alg, _, _ in sized)
    if needs_m:
        check_matrix_size(A, N)
    # BAR over an algebra that is no group is refused here too (degree_dim)
    for alg, kind, cutoff in dict.fromkeys(sized):
        check_bounds(A, kind, cutoff, max_dim, N if alg == "M" else None)
    algebras = {"A": A}
    if needs_m:
        algebras["M"] = matrix_algebra(A, N)
    return algebras


def _map_report(algebras, token, maxdeg, session):
    rep = {"map": token}
    cxs = [build_complex(algebras[alg], kind, cutoff, session)
           for alg, kind, cutoff in _map_complexes(token, maxdeg)]
    A = algebras["A"]
    if token == "P_KAHLER":
        km = KahlerModule(A)
        F = cmaps.p_kahler(A, km, cxs[0], cmaps.omega_complex(km, maxdeg))
    else:
        builder, (src, _), (tgt, _) = _MAPS[token]
        sides = [algebras[alg] for alg in dict.fromkeys((src, tgt))]
        F = getattr(cmaps, builder)(*sides, *cxs[:2])
    if token == "LIFT_P":
        ok_round, ok_nf = lift_identities(*sides, F)
        rep["evidence"] = "composite_identity"
        rep["identities"] = [
            {"id": ident, "status": "pass" if ok else "fail"} for ident, ok in
            (("trace_phi_lift_on_standard_cycles", ok_round),
             ("normal_form_inverts_lift", ok_nf))]
        rep["note"] = ("not a chain map on its own; only the listed "
                       "composites are asserted")
        return rep, ok_round and ok_nf
    ok, wit = verify_chain_map(F, maxdeg)
    rep["evidence"] = "chain_map"
    rep["chain_map_verified"] = ok
    if not ok:
        rep["witness"] = _fmt_wit(wit)
    rep["induced_ranks"] = _induced_rows(F)
    return rep, ok


def cmd_compute(args, argv):
    t0 = time.time()
    A, inputs = _load_compute_algebra(args.algebra)
    kinds = [k for k in args.complex.split(",") if k]
    tokens = [t for t in args.maps.split(",") if t]
    for what, names, known in (("complex", kinds, KINDS),
                               ("map", tokens, MAP_TOKENS)):
        for name in names:
            if name not in known:
                raise UsageError("unknown %s kind %r (have %s)"
                                 % (what, name, ", ".join(known)))
    for flag, names in (("--complex", kinds), ("--maps", tokens)):
        repeated = sorted({t for t in names if names.count(t) > 1})
        if repeated:
            raise UsageError("%s names %s more than once"
                             % (flag, ", ".join(repeated)))
    if not kinds and not tokens:
        raise UsageError("nothing to compute; pass --complex and/or --maps")
    if args.max_degree < 1:
        raise UsageError("--max-degree must be at least 1")
    session = _session(args.max_dim, args.cache)
    algebras = _check_prerequisites(A, kinds, tokens, args.matrix_size,
                                    args.max_degree, session.max_dim)
    # an algebra that fails the axioms (only a file can give one) has no
    # homology to report
    validation = validate_algebra(A)
    if not validation.ok:
        print("error: %s: %s" % (A.name, validation.describe()),
              file=sys.stderr)
        return 1
    _make_cache(session)

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
    # the complexes the maps read are built first, so that a table ranks
    # the boundaries they store
    for token in tokens:
        for alg, kind, cutoff in _map_complexes(token, args.max_degree):
            build_complex(algebras[alg], kind, cutoff, session)
    for kind in kinds:
        table = _betti_table(A, kind, args.max_degree, session)
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
        mrep, ok = _map_report(algebras, token, args.max_degree, session)
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
    _write_outputs(args.out, report, md, argv, config, inputs, t0, session)
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
    if args.suite != "all" and args.suite not in SUITE_IDS:
        raise UsageError("unknown suite %r (have %s, all)"
                         % (args.suite, ", ".join(SUITE_IDS)))
    config = SuiteConfig(cutoff=args.cutoff, matrix_size=args.matrix_size,
                         seed=args.seed,
                         session=_session(args.max_dim, args.cache),
                         debug_break_phi=args.debug_break_phi)
    suite_ids = SUITE_IDS if args.suite == "all" else (args.suite,)
    check_matrix_size_for(suite_ids, args.matrix_size,
                          config.session.max_dim)
    _make_cache(config.session)
    reports = [run_suite(sid, config) for sid in suite_ids]

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
                   config.session)
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
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except ResourceBoundExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except NegativeBetti as exc:  # a failed d.d = 0
        print("error: %s" % exc, file=sys.stderr)
        return 1
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
