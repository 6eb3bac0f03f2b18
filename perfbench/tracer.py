"""Outside-in layer tracing for one benchmark job.

    python3 perfbench/tracer.py SPANS.json cli bounds verify --in g.sgf ...
    python3 perfbench/tracer.py SPANS.json fleet --r 2 --kmax 2 a.sgf ...

Imports serregraph, replaces each layer's public functions with a timing
wrapper everywhere they are bound (`from .x import f` makes a second binding
in the importing module), runs the job inside one root span and writes every
span to SPANS.json when it ends. The job's stdout is untouched, so the
benchmark checks a traced job's output like any other.

A span is [name, layer, start, end, parent index, attrs]; attrs carry the
counts the layer metrics need (edges built, memo hits, graph ids, steps).
Self time is a span's duration minus the durations of its direct children;
summed over all spans it equals the root span's duration.
"""

from __future__ import annotations

import functools
import json
import sys
import time

ROOT = ("cli.run", "cli")


def _arg(args, kw, i, name, default=None):
    if len(args) > i:
        return args[i]
    return kw.get(name, default)


def _memo_hit(args, kw):
    memo = sys.modules["serregraph.treewalk"]._MEMO
    t = memo.get(_arg(args, kw, 0, "d"))
    return {"hit": t is not None and t.nmax >= _arg(args, kw, 1, "nmax")}


def _graph_n3(args, kw, _):
    g = _arg(args, kw, 0, "g")
    return {"graph": id(g), "n3": g.nv ** 3}


def _walk_steps(args, kw, _):
    g = _arg(args, kw, 0, "g")
    return {"walk_steps": g.ne * _arg(args, kw, 2, "nmax")}


def _diag_steps(args, kw, _):
    # edge steps of the equivalent propagation from every root, which the
    # dense matrix-power chain replaces
    g = _arg(args, kw, 0, "g")
    return {"walk_steps": g.nv * g.ne * max(_arg(args, kw, 1, "ts"))}


def _cover(args, kw, _):
    g = _arg(args, kw, 0, "g")
    nmax = _arg(args, kw, 2, "nmax")
    d = max(g.degrees) if g.nv else 0
    big = d > 1 and nmax >= 1 and d * (d - 1) ** (nmax - 1) >= 2 ** 64
    return {"cover_steps": g.ne * max(nmax - 1, 0), "bigint": int(big)}


def _census_key(args, kw, _):
    return {"graph": id(_arg(args, kw, 0, "g")), "k": _arg(args, kw, 1, "k")}


REPORTS = ("thm_main_finite", "thm_main_ramanujan", "thm_main_returns", "thm_43_lower",
           "lemma_visits_lower")

# (module, attribute, layer, pre hook, post hook); a post hook sees
# (args, kwargs, result) after the span has closed.
TARGETS = [
    ("serregraph.core", "SerreGraph.__init__", "core", None,
     lambda a, k, r: {"edges": len(a[0].src)}),
    ("serregraph.core", "from_edges", "core", None, None),
    ("serregraph.core", "validate", "core", None, None),
    ("serregraph.core", "require_regular", "core", None, None),
    ("serregraph.core", "add_half_loops_to_regularize", "core", None, None),
    ("serregraph.sgf", "load_path", "core", None, None),
    ("serregraph.limits", "configuration_model", "core", None, None),
    ("serregraph.percolation", "percolate", "core", None, None),
    ("serregraph.treewalk", "tables_for", "treewalk", _memo_hit, None),
    ("serregraph.treewalk", "TreeWalkTables.__init__", "treewalk", None,
     lambda a, k, r: {"build": int(_arg(a, k, 3, "_c") is None)}),
    ("serregraph.treewalk", "TreeWalkTables.load", "treewalk", None, None),
    ("serregraph.treewalk", "TreeWalkTables.save", "treewalk", None, None),
    ("serregraph.spectral", "markov_spectrum", "spectral.eig", None, _graph_n3),
    ("serregraph.spectral", "rho", "spectral.eig", None, _graph_n3),
    ("serregraph.spectral", "spectral_measure", "spectral.eig", None, _graph_n3),
    ("serregraph.spectral", "walk_counts", "spectral.walk", None, _walk_steps),
    ("serregraph.spectral", "diag_power_counts_batch", "spectral.walk", None, _diag_steps),
    ("serregraph.spectral", "return_probability_dp", "spectral.walk", None, None),
    ("serregraph.spectral", "hitting_probabilities", "spectral.walk", None, None),
    ("serregraph.spectral", "nonbacktracking_closed_counts", "spectral.walk", None, _walk_steps),
    ("serregraph.percolation", "cover_sphere_sizes", "percolation.cover", None, _cover),
    ("serregraph.census", "cycle_census", "census", None, _census_key),
    ("serregraph.census", "gamma_k", "census", None, None),
    ("serregraph.census", "essential_girth_profile", "census", None, None),
    ("serregraph.nullcycles", "NullcycleSampler.__init__", "nullcycles", None, None),
    ("serregraph.nullcycles", "NullcycleSampler.draws", "nullcycles", None,
     lambda a, k, r: {"draw": 1, "draw_steps": len(r.edges)}),
    ("serregraph.nullcycles", "chi_statistic", "nullcycles", None, None),
    ("serregraph.nullcycles", "enumerate_nullcycles", "nullcycles", None,
     lambda a, k, r: {"walks": len(r)}),
    ("serregraph.nullcycles", "expected_visits", "nullcycles", None, None),
    ("serregraph.patterns", "pattern", "patterns", None, None),
    ("serregraph.patterns", "pattern_of_ball", "patterns", None,
     lambda a, k, r: {"nontree": int(not r.is_tree)}),
    ("serregraph.patterns", "tree_pattern", "patterns", None, None),
    *[("serregraph.bounds", f, "bounds", None, None) for f in REPORTS],
    ("serregraph.bounds", "mean_log_return", "bounds", None, None),
    *[("serregraph.limits", f, "limits", None, None)
      for f in ("ekvivalens_diagnostic", "bs_histogram", "tree_pattern_tv", "km_w1")],
]

GENERATORS = {"NullcycleSampler.draws"}


class Tracer:
    """Collects spans in memory; the stack gives each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def _open(self, name, layer, attrs):
        rec = [name, layer, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, attrs]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[3] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, layer, pre=None, post=None):
        @functools.wraps(fn)
        def traced(*args, **kw):
            rec = self._open(name, layer, pre(args, kw) if pre else None)
            try:
                result = fn(*args, **kw)
            finally:
                self._close(rec)
            if post:
                rec[5] = {**(rec[5] or {}), **post(args, kw, result)}
            return result

        return traced

    def wrap_generator(self, fn, name, layer, post):
        """One span per next(); the span that ends the stream carries no attrs."""

        @functools.wraps(fn)
        def traced(*args, **kw):
            it = fn(*args, **kw)
            while True:
                rec = self._open(name, layer, None)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(rec)
                rec[5] = post(args, kw, item)
                yield item

        return traced

    def install(self):
        """Wrap every target in every serregraph module that binds it."""
        import serregraph.cli  # noqa: F401  (imports every layer)

        modules = [m for n, m in list(sys.modules.items())
                   if n == "serregraph" or n.startswith("serregraph.")]
        for modname, attr, layer, pre, post in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                if attr in GENERATORS:
                    w = self.wrap_generator(fn, attr, layer, post)
                else:
                    w = self.wrap(fn, attr, layer, pre, post)
                setattr(cls, meth, classmethod(w) if isinstance(raw, classmethod) else w)
                continue
            orig = getattr(owner, attr)
            w = self.wrap(orig, attr, layer, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, w)

    def run(self, fn, *args):
        rec = self._open(*ROOT, None)
        try:
            return fn(*args)
        finally:
            self._close(rec)


# -- metrics from spans ----------------------------------------------------------

SELF_METRIC = {
    "cli": "cli.self_s", "core": "core.self_s", "treewalk": "treewalk.self_s",
    "spectral.eig": "spectral.eig_self_s", "spectral.walk": "spectral.walk_self_s",
    "percolation.cover": "percolation.cover_self_s", "census": "census.self_s",
    "nullcycles": "nullcycles.self_s", "patterns": "patterns.self_s",
    "bounds": "bounds.self_s", "limits": "limits.self_s",
}


def self_times(spans) -> list[float]:
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[4] >= 0:
            child[rec[4]] += rec[3] - rec[2]
    return [rec[3] - rec[2] - c for rec, c in zip(spans, child)]


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values of one traced job. Ratios read 0 when the
    denominator is 0 (the layer did not run)."""
    layer_self = dict.fromkeys(SELF_METRIC, 0.0)
    layer_calls = dict.fromkeys(SELF_METRIC, 0)
    name_self: dict[str, float] = {}
    name_calls: dict[str, int] = {}
    total: dict[str, int] = {}
    graphs, census_keys = [], []
    max_ball = 0.0
    for rec, s in zip(spans, self_times(spans)):
        name, layer, start, end, _, attrs = rec
        attrs = attrs or {}
        layer_self[layer] += s
        layer_calls[layer] += 1
        name_self[name] = name_self.get(name, 0.0) + s
        name_calls[name] = name_calls.get(name, 0) + 1
        for key, val in attrs.items():
            if key not in ("graph", "k"):
                total[key] = total.get(key, 0) + val
        if name == "cycle_census":
            census_keys.append((attrs["graph"], attrs["k"]))
        elif layer == "spectral.eig" and "graph" in attrs:
            graphs.append(attrs["graph"])
        elif name == "pattern_of_ball":
            max_ball = max(max_ball, end - start)

    def ratio(a, b):
        return a / b if b else 0.0

    root = spans[0]
    return {
        "cli.self_s": layer_self["cli"],
        "core.self_s": layer_self["core"],
        "core.calls": layer_calls["core"],
        "core.edges_built": total.get("edges", 0),
        "core.validate_calls": name_calls.get("validate", 0),
        "core.validate_s": name_self.get("validate", 0.0),  # validate calls no traced function
        "treewalk.self_s": layer_self["treewalk"],
        "treewalk.calls": name_calls.get("tables_for", 0),
        "treewalk.builds": total.get("build", 0),
        "treewalk.memo_hit_ratio": ratio(total.get("hit", 0), name_calls.get("tables_for", 0)),
        "spectral.eig_calls": len(graphs),
        "spectral.eig_self_s": layer_self["spectral.eig"],
        "spectral.eig_distinct_ratio": ratio(len(set(graphs)), len(graphs)),
        "spectral.eig_n3": total.get("n3", 0),
        "spectral.walk_self_s": layer_self["spectral.walk"],
        "spectral.walk_edge_steps": total.get("walk_steps", 0),
        "percolation.cover_self_s": layer_self["percolation.cover"],
        "percolation.cover_edge_steps": total.get("cover_steps", 0),
        "percolation.cover_bigint_runs": total.get("bigint", 0),
        "census.self_s": layer_self["census"],
        "census.roots": name_calls.get("gamma_k", 0),
        "census.distinct_ratio": ratio(len(set(census_keys)), len(census_keys)),
        "nullcycles.self_s": layer_self["nullcycles"],
        "nullcycles.draws": total.get("draw", 0),
        "nullcycles.steps": total.get("draw_steps", 0),
        "nullcycles.draw_self_s": name_self.get("NullcycleSampler.draws", 0.0),
        "nullcycles.chi_self_s": name_self.get("chi_statistic", 0.0),
        "nullcycles.enum_walks": total.get("walks", 0),
        "patterns.balls": name_calls.get("pattern_of_ball", 0),
        "patterns.nontree_share": ratio(total.get("nontree", 0),
                                        name_calls.get("pattern_of_ball", 0)),
        "patterns.self_s": layer_self["patterns"],
        "patterns.max_ball_s": max_ball,
        "bounds.reports": sum(name_calls.get(f, 0) for f in REPORTS),
        "bounds.self_s": layer_self["bounds"],
        "limits.self_s": layer_self["limits"],
        "trace.wall_s": root[3] - root[2],
    }


UNITS = {
    "cli.import_s": "s", "cli.self_s": "s",
    "core.self_s": "s", "core.calls": "count", "core.edges_built": "count",
    "core.validate_calls": "count", "core.validate_s": "s",
    "treewalk.self_s": "s", "treewalk.calls": "count", "treewalk.builds": "count",
    "treewalk.memo_hit_ratio": "count/count", "treewalk.disk_bytes": "B",
    "spectral.eig_calls": "count", "spectral.eig_self_s": "s",
    "spectral.eig_distinct_ratio": "count/count", "spectral.eig_n3": "count",
    "spectral.walk_self_s": "s", "spectral.walk_edge_steps": "count",
    "percolation.cover_self_s": "s", "percolation.cover_edge_steps": "count",
    "percolation.cover_bigint_runs": "count",
    "census.self_s": "s", "census.roots": "count", "census.distinct_ratio": "count/count",
    "nullcycles.self_s": "s", "nullcycles.draws": "count", "nullcycles.steps": "count",
    "nullcycles.draw_self_s": "s", "nullcycles.chi_self_s": "s",
    "nullcycles.enum_walks": "count",
    "patterns.balls": "count", "patterns.nontree_share": "count/count",
    "patterns.self_s": "s", "patterns.max_ball_s": "s",
    "bounds.reports": "count", "bounds.self_s": "s", "limits.self_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}


def main(argv) -> int:
    out, entry, job_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    if entry == "cli":
        import serregraph.cli

        fn = serregraph.cli.run
    else:
        import fleet_job

        fn = fleet_job.main
    code = tracer.run(fn, job_argv)
    sys.stdout.flush()
    with open(out, "w") as fh:
        json.dump({"spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
