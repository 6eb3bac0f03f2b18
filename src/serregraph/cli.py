"""Command line front end with replayable run manifests.

Conventions shared by every subcommand: exact rationals are printed as
"num/den" strings, never floats; CSV column sets are fixed; seeded
computations take explicit --seed flags so a rerun is bit-identical. When
--manifest PATH is given, the run writes a JSON record of the subcommand,
its full parameter set, the seeds involved, the tool version, the tree
table cache keys touched, and a sha256 digest of every artifact
(including what went to stdout); replaying the same parameters must
reproduce the digests. Digests are computed only for --manifest and for
the fixtures log, which prints them: hashlib loads OpenSSL, a few MB of
resident memory that no other run reads.

Each run is one short process, so the front end loads only what its
command calls. core, sgf, exact and report are imported eagerly; the other
layer modules are registered in sys.modules by importlib.util.LazyLoader
and execute on their first attribute access, and the handlers look their
functions up at call time (module.f, not a from-import, which would
execute the module at once). Registration rather than handler-local
imports keeps every layer module in sys.modules after `import
serregraph.cli`, where perfbench/tracer.py finds and wraps them.

Exit codes: 0 success; 2 when a verdict-producing suite was entirely
hypothesis-gated ("not applicable", distinguished from failure); 1 on
errors and on any failed verdict.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    SerreGraph,
    complete_graph,
    cycle_graph,
    half_loop_rose,
    petersen,
    prism,
    require_regular,
    rose,
)
from .exact import frac_str
from .report import BoundReport, Hypothesis, report
from .sgf import SGFError, dumps as sgf_dumps, load_path


def _lazy(name: str):
    """The package module `name`, registered in sys.modules so that it
    executes on its first attribute access (importlib.util.LazyLoader)."""
    full = f"{__package__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


bounds = _lazy("bounds")
census = _lazy("census")
fungroup = _lazy("fungroup")
limits = _lazy("limits")
nullcycles = _lazy("nullcycles")
patterns = _lazy("patterns")  # no handler calls it; registered for the tracer
percolation = _lazy("percolation")
spectral = _lazy("spectral")
treewalk = _lazy("treewalk")

SUITES = ("main", "ramanujan", "returns", "chi", "visits", "girth")


def _jsonable(x):
    if isinstance(x, Fraction):
        return frac_str(x)
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _dumps(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n"


class _Emitter:
    """Routes artifact text to stdout or files. With `digests` set it also
    records each artifact's sha256; only --manifest and the fixtures log
    read them, and hashlib loads OpenSSL."""

    def __init__(self, digests: bool):
        self.digests: list[tuple[str, str]] | None = [] if digests else None

    def write(self, text: str, path=None, label: str = "stdout") -> None:
        if path is None or path == "-":
            sys.stdout.write(text)
        else:
            Path(path).write_text(text)
            label = str(path)
        if self.digests is not None:
            import hashlib

            self.digests.append((label, hashlib.sha256(text.encode()).hexdigest()))


def _write_manifest(args, emitter: _Emitter) -> None:
    if not args.manifest:
        return
    skip = {"manifest", "func"}
    params = {k: _jsonable(v) for k, v in vars(args).items() if k not in skip}
    # a seed is recorded only when the run draws from it: bounds verify never
    # does, and kappa only with --method mc
    drawn = {"bounds": False, "kappa": params.get("method") == "mc"}
    if "seeds" in params:  # a count: the fleet's graphs use seeds 0..count-1
        seeds = list(range(params["seeds"]))
    else:
        seeds = [params["seed"]] if drawn.get(params["command"], "seed" in params) else []
    cache_keys = sorted((d, t.nmax) for d, t in treewalk._MEMO.items())
    manifest = {
        "subcommand": params.pop("command"),
        "params": params,
        "seeds": seeds,
        "version": __version__,
        "table_cache_keys": cache_keys,
        "output_digests": [{"artifact": a, "sha256": h} for a, h in emitter.digests],
    }
    Path(args.manifest).write_text(_dumps(manifest))


def _parse_krange(text: str) -> list[int]:
    """"3" | "1,3,5" | "1..4" -> explicit k list."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        ks = list(range(int(lo), int(hi) + 1))
    else:
        ks = [int(part) for part in text.split(",") if part]
    if not ks or any(k < 1 for k in ks):
        raise ValueError(f"bad k range {text!r}: expected like 2, 1,3 or 1..4")
    return ks


def _csv_lines(header, rows) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(c) for c in row))
    return "\n".join(out) + "\n"


# -- subcommand handlers -------------------------------------------------------


def _cmd_treewalk(args, emitter: _Emitter) -> int:
    if args.action == "tables":
        t = treewalk.tables_for(args.d, args.nmax)
        payload = {
            "d": args.d,
            "nmax": args.nmax,
            "return_probabilities": [
                frac_str(Fraction(t.u[n][0], args.d ** n)) for n in range(args.nmax + 1)
            ],
            "nullcycle_counts": [t.u[n][0] for n in range(args.nmax + 1)],
        }
        emitter.write(_dumps(payload), args.out)
        return 0
    reports = treewalk.check_return_bounds(args.d, args.nmax)
    rows = []
    for rep in reports:
        n = int(rep.name.rsplit("n=", 1)[1])
        lower = rep.rhs
        rows.append((n, lower, frac_str(rep.constants["r_n"]), 15.0 * lower, rep.margin))
    emitter.write(_csv_lines(("n", "lhs", "r_n", "rhs", "margin"), rows), args.csv)
    return 0


def _cmd_spectrum(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    s = spectral.markov_spectrum(g, residual_check=True)
    payload = {
        "d": s.d,
        "rho": s.rho,
        "residual_bound": 1e-10,
        "eigenvalues": list(s.eigenvalues),
        "is_bipartite": s.is_bipartite,
        "ramanujan": s.ramanujan,
        "weakly_ramanujan_mass": s.weakly_ramanujan_mass,
        "n_components": s.n_components,
    }
    if args.json:
        emitter.write(_dumps(payload), args.out)
    else:
        lines = [
            f"graph {args.infile}: {g.nv} vertices, d={s.d}",
            f"rho {s.rho!r} (eigensolve residual <= 1e-10)",
            f"bipartite {s.is_bipartite} ramanujan {s.ramanujan} "
            f"components {s.n_components} "
            f"weakly_ramanujan_mass {frac_str(s.weakly_ramanujan_mass)}",
        ]
        emitter.write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_cogrowth(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    s = spectral.nonbacktracking_cogrowth(g, args.m)
    payload = {
        "alpha": s.alpha,
        "degenerate": s.degenerate,
        "method": s.method,
        "m": s.m,
        "rho_cover": s.rho_cover,
    }
    emitter.write(_dumps(payload), args.out)
    return 0


def _parse_stats(text: str):
    specs = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "visits":
            specs.append(("visits", None, None))
            continue
        parts = token.split(":")
        if parts[0] == "chi" and len(parts) == 3:
            kv = dict(p.split("=", 1) for p in parts[1:])
            if set(kv) == {"k", "l"}:
                specs.append(("chi", int(kv["k"]), int(kv["l"])))
                continue
        raise ValueError(f"unknown stat {token!r}: expected visits or chi:k=K:l=L")
    return specs


def _cmd_nullcycle(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    specs = _parse_stats(args.stats) if args.stats else []
    sampler = nullcycles.NullcycleSampler(g, args.root, args.n)
    lines = []
    for i, walk in enumerate(sampler.draws(args.count, args.seed)):
        rec = {"draw": i, "root": args.root, "n": args.n, "edges": list(walk.edges)}
        for kind, k, ell in specs:
            if kind == "visits":
                rec["visits"] = sum(1 for v in walk.vertices(g) if v == args.root)
            else:
                rec[f"chi_k{k}_l{ell}"] = nullcycles.chi_statistic(g, walk, k, ell)
        lines.append(json.dumps(_jsonable(rec), sort_keys=True) + "\n")
    emitter.write("".join(lines), args.out)
    return 0


def _cmd_census(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    c = census.cycle_census(g, args.k)
    rows = [[v, c.per_vertex[v]] for v in range(g.nv)]
    emitter.write(_csv_lines(["vertex", f"gamma_{args.k}"], rows), args.csv, label="census-csv")
    summary = dict(c.to_dict())
    summary["nv"] = g.nv
    summary["mean"] = frac_str(c.density)
    emitter.write(_dumps(summary), args.json_out, label="census-json")
    return 0


def _girth_report(g: SerreGraph) -> BoundReport:
    d = require_regular(g)
    beta = bounds.essential_girth_beta(d)
    eps = beta
    # ln ln |G| is undefined below three vertices: no radius is promised there
    if g.nv >= 3:
        eb = bounds.ess_girth_bound(g.nv, d, 1.0, beta, eps)
        radius, envelope, r_eff = eb.radius, eb.envelope, math.floor(eb.radius)
    else:
        radius, envelope, r_eff = math.nan, math.nan, 0
    hyp = Hypothesis(
        "floor(beta lnln|G|) >= 1",
        r_eff >= 1,
        f"radius={radius:.6f}: the promised tree-ball radius is below 1 "
        "until |G| is astronomically large",
    )
    prof = census.essential_girth_profile(g, max(1, r_eff))
    lhs = float(prof.fractions[max(1, r_eff) - 1])
    return report(
        f"essential-girth beta={beta:.6f}",
        lhs=lhs,
        rhs=1.0 - envelope,
        hypotheses=(hyp,),
        constants={
            "beta": beta,
            "eps": eps,
            "radius": radius,
            "envelope": envelope,
            "tree_fraction_shown_at_r": max(1, r_eff),
        },
        notes="informational below radius 1: displayed fraction uses r=1",
    )


def _suite_reports(g: SerreGraph, suite: str, ks, n, rho, gamma, gamma_root):
    nn = n if n is not None else 4  # the returns and chi length
    if suite == "main":
        return [(k, bounds.thm_main_finite(g, k, rho(), gamma(k))) for k in ks]
    if suite == "ramanujan":
        return [(k, bounds.thm_main_ramanujan(g, k, rho(), gamma(k))) for k in ks]
    if suite == "returns":
        ts = {nn * k // 2 for k in ks if nn * k > 0 and nn * k % 2 == 0}
        diag = spectral.diag_power_counts_batch(g, ts) if ts else {}
        out = []
        for k in ks:
            # an odd nk is a parity error, raised before any census is taken
            gam = gamma(k) if nn * k % 2 == 0 else None
            out.append((k, bounds.thm_main_returns(g, nn, k, gam, diag.get(nn * k // 2))))
        return out
    if suite == "chi":
        # one non-backtracking pass from the root serves every k; an odd nk is
        # a parity error, raised by its verdict. Reading the verdict first
        # executes bounds before the pass fills the heap: compiled after it,
        # bounds raised the walks job's peak RSS by ~0.2 MB
        lower = bounds.thm_43_lower
        even = [k for k in ks if nn * k > 0 and nn * k % 2 == 0]
        moments = nullcycles.chi_moments(g, 0, nn, even)
        return [(k, lower(g, nn, k, moments.get(k))) for k in ks]
    if suite == "visits":
        return [
            (k, bounds.lemma_visits_lower(g, 0, 2 * k + 2 if n is None else n, k, rho(),
                                          gamma_root(k)))
            for k in ks
        ]
    return [(0, _girth_report(g))]


def _cmd_bounds(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    suites = [s.strip() for s in args.suite.split(",") if s.strip()]
    for s in suites:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}: choose from {', '.join(SUITES)}")
    ks = _parse_krange(args.k)
    # the main, ramanujan, returns and visits suites share one eigensolve,
    # the first three one census per k, and visits one root count per k, each
    # computed on first use. Reading the solver and the root count here
    # executes spectral, then census, before any suite runs: executed after
    # the chi suite's tree tables, spectral moved the walks job's peak RSS by
    # ~0.7 MB, and census keeps the place it had as an import of bounds.
    solve, gamma_at = spectral.rho, census.gamma_k
    rho = functools.cache(lambda: solve(g))
    gamma = functools.cache(lambda k: census.cycle_census(g, k).density)
    gamma_root = functools.cache(lambda k: gamma_at(g, 0, k))
    if "visits" in suites:
        # the visits eigensolve runs first: after the chi pass it sat on that
        # pass's freed heap, ~0.9 MB more peak RSS on the walks job
        rho()
    rows = []
    verdicts = []
    for suite in suites:
        for k, rep in _suite_reports(g, suite, ks, args.n, rho, gamma, gamma_root):
            verdicts.append(rep.verdict)
            failed = ";".join(h.name for h in rep.hypotheses if not h.ok)
            rows.append(
                (
                    suite,
                    k,
                    rep.name,
                    rep.verdict,
                    rep.lhs,
                    rep.rhs,
                    rep.margin,
                    rep.tolerance,
                    failed,
                    rep.notes.replace(",", ";"),
                )
            )
    header = (
        "suite",
        "k",
        "name",
        "verdict",
        "lhs",
        "rhs",
        "margin",
        "tolerance",
        "failed_hypotheses",
        "notes",
    )
    emitter.write(_csv_lines(header, rows), args.csv)
    if any(v == "fail" for v in verdicts):
        return 1
    if verdicts and all(v == "not applicable" for v in verdicts):
        return 2
    return 0


def _cmd_kappa(args, emitter: _Emitter) -> int:
    g = load_path(args.infile)
    est = fungroup.kappa_estimate(
        g,
        args.x,
        args.y,
        args.k,
        args.mmax,
        method=args.method,
        samples=args.samples,
        seed=args.seed,
    )
    payload = {
        "x": est.x,
        "y": est.y,
        "k": est.k,
        "method": est.method,
        "truncated": est.truncated,
        "p_even": [p if isinstance(p, float) else frac_str(p) for p in est.p_even],
        "kappa": list(est.kappa),
        "stderr": est.stderr,
    }
    if args.json:
        emitter.write(_dumps(payload), args.out)
    else:
        lines = [f"kappa_hat m={m}: {v!r}" for m, v in enumerate(est.kappa, start=1)]
        lines.append(f"method {est.method} truncated {est.truncated}")
        emitter.write("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_limits(args, emitter: _Emitter) -> int:
    sizes = [int(s) for s in args.sizes.split(",") if s]
    graphs = []
    labels = []
    for size in sizes:
        for seed in range(args.seeds):
            graphs.append(limits.configuration_model(args.d, size, seed=seed))
            labels.append(f"cfg-d{args.d}-n{size}-s{seed}")
    rows_out = limits.ekvivalens_diagnostic(graphs, args.r, args.kmax, labels=labels)
    header = ["label", "nv", "tv_tree", "w1_km"] + [
        f"density_{k}" for k in range(1, args.kmax + 1)
    ]
    rows = [
        [r.label, r.nv, float(r.tv_tree), r.w1_km]
        + [float(x) for x in r.cycle_densities]
        for r in rows_out
    ]
    emitter.write(_csv_lines(header, rows), args.csv)
    return 0


def _cmd_percolation(args, emitter: _Emitter) -> int:
    w = percolation.percolate(args.size, args.size, args.p, args.seed)
    if w.cluster_root < 0:
        raise ValueError(
            f"origin closed at p={args.p} seed={args.seed}: empty cluster, try another seed"
        )
    est = percolation.window_growth(w, args.nmax, args.tail_fraction)
    if args.csv is not None:
        rows = [
            (n, est.sizes[n], est.rates[n - 1]) for n in range(1, args.nmax + 1)
        ]
        emitter.write(_csv_lines(("n", "sphere_size", "rate"), rows), args.csv)
    if args.csv is None or args.csv != "-":
        summary = {
            "p": args.p,
            "size": args.size,
            "seed": args.seed,
            "cluster_size": w.cluster_size,
            "border_distance": w.border_distance,
            "boundary_clean": est.boundary_clean,
            "tail_start": est.tail_start,
            "growth": est.value,
        }
        emitter.write(_dumps(summary), None, label="summary")
    return 0


_FIXTURES = {
    "k4.sgf": lambda: complete_graph(4),
    "k5.sgf": lambda: complete_graph(5),
    "pet.sgf": lambda: petersen(),
    "c6.sgf": lambda: cycle_graph(6),
    "prism3.sgf": lambda: prism(3),
    "rose2.sgf": lambda: rose(2),
    "hlrose3.sgf": lambda: half_loop_rose(3),
    "cfg3-64-s0.sgf": lambda: limits.configuration_model(3, 64, seed=0),
}


def _cmd_fixtures(args, emitter: _Emitter) -> int:
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    lines = []
    for name, build in _FIXTURES.items():
        text = sgf_dumps(build())
        path = outdir / name
        emitter.write(text, path, label=name)
        lines.append(f"wrote {path} sha256={emitter.digests[-1][1]}")
    emitter.write("\n".join(lines) + "\n", None, label="fixtures-log")
    return 0


# -- parser --------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="serregraph",
        description="Walk tables, spectra, nullcycles, and inequality verdicts "
        "for d-regular graphs.",
    )
    ap.add_argument("--manifest", help="write a replayable run manifest JSON here")
    sub = ap.add_subparsers(dest="command", required=True)

    tw = sub.add_parser("treewalk", help="exact tree walk tables and bounds")
    tws = tw.add_subparsers(dest="action", required=True)
    twt = tws.add_parser("tables", help="emit r_n and |N_n| as exact strings")
    twt.add_argument("--d", type=int, required=True)
    twt.add_argument("--nmax", type=int, required=True)
    twt.add_argument("--out")
    twt.set_defaults(func=_cmd_treewalk)
    twb = tws.add_parser("check-bounds", help="two-sided r_n bound CSV")
    twb.add_argument("--d", type=int, required=True)
    twb.add_argument("--nmax", type=int, default=200)
    twb.add_argument("--csv", nargs="?", const="-")
    twb.set_defaults(func=_cmd_treewalk)

    sp = sub.add_parser("spectrum", help="Markov operator eigensolve summary")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_spectrum)

    cg = sub.add_parser("cogrowth", help="non-backtracking cogrowth")
    cg.add_argument("--in", dest="infile", required=True)
    cg.add_argument("--m", type=int, default=None)
    cg.add_argument("--out")
    cg.set_defaults(func=_cmd_cogrowth)

    nc = sub.add_parser("nullcycle", help="uniform nullcycle sampling")
    ncs = nc.add_subparsers(dest="action", required=True)
    ncd = ncs.add_parser("sample", help="draw walks, emit JSON records")
    ncd.add_argument("--in", dest="infile", required=True)
    ncd.add_argument("--root", type=int, required=True)
    ncd.add_argument("--n", type=int, required=True)
    ncd.add_argument("--seed", type=int, default=0)
    ncd.add_argument("--count", type=int, default=1)
    ncd.add_argument("--stats", default="", help="visits,chi:k=3:l=100")
    ncd.add_argument("--out")
    ncd.set_defaults(func=_cmd_nullcycle)

    ce = sub.add_parser("census", help="nontrivial k-cycle counts per vertex")
    ce.add_argument("--in", dest="infile", required=True)
    ce.add_argument("--k", type=int, required=True)
    ce.add_argument("--csv", nargs="?", const="-")
    ce.add_argument("--json-out", dest="json_out")
    ce.set_defaults(func=_cmd_census)

    bo = sub.add_parser("bounds", help="inequality verdict suites")
    bos = bo.add_subparsers(dest="action", required=True)
    bov = bos.add_parser("verify", help="run suites, emit verdict CSV")
    bov.add_argument("--in", dest="infile", required=True)
    bov.add_argument("--suite", default="main", help=",".join(SUITES))
    bov.add_argument("--k", default="1..3", help='like "2", "1,3" or "1..4"')
    bov.add_argument("--n", type=int, default=None, help="walk length for returns/chi/visits")
    # every suite is exact: the two flags are accepted for older command lines
    bov.add_argument("--samples", type=int, default=20000, help="ignored: no suite samples")
    bov.add_argument("--seed", type=int, default=0, help="ignored: no suite samples")
    bov.add_argument("--csv", nargs="?", const="-")
    bov.set_defaults(func=_cmd_bounds)

    ka = sub.add_parser("kappa", help="walk-set norm estimates")
    ka.add_argument("--in", dest="infile", required=True)
    ka.add_argument("--x", type=int, required=True)
    ka.add_argument("--y", type=int, required=True)
    ka.add_argument("--k", type=int, required=True)
    ka.add_argument("--mmax", type=int, required=True)
    ka.add_argument("--method", choices=("auto", "exact", "mc"), default="auto")
    ka.add_argument("--samples", type=int, default=20000)
    ka.add_argument("--seed", type=int, default=0)
    ka.add_argument("--json", action="store_true")
    ka.add_argument("--out")
    ka.set_defaults(func=_cmd_kappa)

    li = sub.add_parser("limits", help="local-limit fleet diagnostics")
    lis = li.add_subparsers(dest="action", required=True)
    lif = lis.add_parser("fleet", help="configuration-model fleet CSV")
    lif.add_argument("--d", type=int, required=True)
    lif.add_argument("--sizes", required=True, help="comma list, e.g. 64,256,1024")
    lif.add_argument("--seeds", type=int, default=1)
    lif.add_argument("--r", type=int, default=2)
    lif.add_argument("--kmax", type=int, default=4)
    lif.add_argument("--csv", nargs="?", const="-")
    lif.set_defaults(func=_cmd_limits)

    pe = sub.add_parser("percolation", help="window percolation cover growth")
    pes = pe.add_subparsers(dest="action", required=True)
    peg = pes.add_parser("growth", help="sphere sizes and tail growth estimate")
    peg.add_argument("--p", type=float, required=True)
    peg.add_argument("--size", type=int, required=True)
    peg.add_argument("--seed", type=int, default=0)
    peg.add_argument("--nmax", type=int, default=40)
    peg.add_argument("--tail-fraction", type=float, default=0.25)
    peg.add_argument("--csv", nargs="?", const="-")
    peg.set_defaults(func=_cmd_percolation)

    fx = sub.add_parser("fixtures", help="regenerate SGF fixture files")
    fx.add_argument("--out-dir", default="fixtures")
    fx.set_defaults(func=_cmd_fixtures)

    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    emitter = _Emitter(digests=bool(args.manifest) or args.command == "fixtures")
    try:
        code = args.func(args, emitter)
    except SGFError as exc:
        print(f"error: malformed SGF: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _write_manifest(args, emitter)
    return code


def main(argv=None) -> int:
    return run(argv)
