"""Every package function is reached by a command or named here with a reason.

One subprocess installs a profile hook, then imports serregraph.cli and runs
a command matrix in process: every subcommand, every `bounds` suite and every
`kappa` method on the fixture graphs. The hook records the code objects it
enters as (file, first line). The AST maps those to top-level functions and
methods: co_qualname would name them directly but needs Python 3.11, and a
decorated function's code starts at its first decorator line.

A function no command reaches must be bound by perfbench/ (derived below from
its sources, not copied) or sit on one of the hand-written lists, and a
hand-written entry that a command reaches, or that names nothing, fails too.
The total line count of the unreached functions may not rise above a ceiling.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import serregraph

PKG = Path(serregraph.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# -- hand-written lists ---------------------------------------------------------

# callees of code that perfbench/ binds, which no command calls; they go with
# the names perfbench binds, once the benchmark stops binding them
TRACER_CALLEES = {
    "core.ball",  # patterns.pattern
    "core.Ball.is_tree",  # patterns.pattern_of_ball
    "core.is_tree",  # Ball.is_tree
    "core.is_connected",  # is_tree, spectral.hitting_bound_check
    "core.induced_subgraph",  # ball
    "core.tree_ball",  # patterns.tree_pattern
    "core.RootedGraph.__post_init__",  # tree_ball
    "core.SerreGraph.full_loop_pairs",  # patterns' canonical form
    "core.SerreGraph.half_loop_count",  # patterns' canonical form
    "limits.PatternHistogram.total",  # limits.bs_histogram
    "nullcycles.nonbacktracking_hit_fractions",  # nullcycles.expected_visits
    "treewalk.bridge_distance_distribution",  # nullcycles.expected_visits
    "treewalk.TreeWalkTables._lines",  # TreeWalkTables.save and .load
    "treewalk.sphere",  # TreeWalkTables._lines and the bridge functions
    "spectral.SpectralMeasure.mass",  # the result of spectral.spectral_measure
    "spectral.SpectralMeasure.moment",  # the result of spectral.spectral_measure
}

# paper statements that only tests check, until each becomes a `bounds verify`
# suite or moves into the tests that check it
PAPER_CHECKS = {
    "bounds.distance_bound",
    "bounds.distance_gap",
    "fungroup.kappa_star",
    "fungroup.KappaStar.value",
    "fungroup.KappaEstimate.achieved_m",  # read by kappa_star and lemma_basic_check
    "fungroup.KappaEstimate.last",  # read by lemma_basic_check
    "fungroup.lemma_basic_check",
    "fungroup.szep_tree_degenerate",
    "fungroup.p_k_distribution",
    "fungroup._tv",  # p_k_distribution
    "spectral.hitting_bound_check",
    "spectral.tree_m_ramanujan",
    "spectral.rayleigh_lower_bound",
    "spectral.radial_weight",  # rayleigh_lower_bound
    "nullcycles.parity_probability",
    "nullcycles.parity_partition_probability",
    "nullcycles._even_part_count",  # parity_partition_probability
    "treewalk.bridge_visit_expectation",
    "treewalk.finite_bridge_ratio",
    "treewalk.infinite_bridge_ratio",
    "treewalk.excursion_visits_z",
    "treewalk.z_paths",
    "treewalk.z_positive_paths",
}

# independent oracles and graph families the tests build their checks from
TEST_ORACLES = {
    "core.cayley_graph",
    "core.schreier_quotient",
    "core._involution_pairing",  # cayley_graph, schreier_quotient
    "core._perm_inverse",  # _involution_pairing
    "core.connected_components",
    "core.reduce_word",  # homotopy_class, lemma_basic_check and the tests' brute forces
    "core.disjoint_union",
    "core.split_full_loops",
    "core.tree_m_ball",
    "core.triangle_tree_ball",
    "limits.planted_triangle_graph",
    "fungroup.homotopy_class",
    "nullcycles.classify_cycle",
    "core.Walk.is_closed",  # classify_cycle
    "percolation.PercolationWindow.cluster",
    "percolation.PercolationWindow.coords",
    "percolation.PercolationWindow.density",
    "percolation.PercolationWindow.reaches_boundary",
}

KEPT = {
    "cli.main",  # the console-script entry point; the matrix calls cli.run
    "report.BoundReport.to_dict",  # kept for a machine-readable verdict output
    "core.SerreGraph.__repr__",  # Python calls it to print a graph
    "core.Walk.__len__",  # Python calls it for len(walk)
}

# cli registers this module only so that perfbench/tracer.py can wrap it
TRACER_MODULES = {"patterns"}

# total lines of the functions no command reaches (AST spans, decorator lines
# included); lower it when a change deletes or reaches some of them
UNREACHED_LINE_CEILING = 1116

# -- the profiled run -------------------------------------------------------------

PROFILED = """
import contextlib, io, json, sys

entered = set()


def hook(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))


sys.setprofile(hook)
import serregraph.cli

codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(serregraph.cli.run(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""

FIXTURES = ("k4", "k5", "pet", "c6", "prism3", "rose2", "hlrose3", "cfg3-64-s0")


def _matrix(tmp):
    fx = tmp / "fx"
    runs = [
        ["--manifest", str(tmp / "m.json"), "fixtures", "--out-dir", str(fx)],
        ["treewalk", "tables", "--d", "3", "--nmax", "8"],
        ["treewalk", "check-bounds", "--d", "3", "--nmax", "8"],
        ["limits", "fleet", "--d", "3", "--sizes", "16,24", "--r", "1", "--kmax", "2"],
        ["percolation", "growth", "--p", "0.9", "--size", "12", "--seed", "1", "--nmax", "4"],
    ]
    for name in FIXTURES:
        g = str(fx / f"{name}.sgf")
        runs += [
            ["spectrum", "--in", g],
            ["spectrum", "--in", g, "--json"],
            ["cogrowth", "--in", g, "--m", "4"],
            ["nullcycle", "sample", "--in", g, "--root", "0", "--n", "6", "--count", "2",
             "--stats", "visits,chi:k=2:l=50"],
            ["census", "--in", g, "--k", "3"],
            ["bounds", "verify", "--in", g, "--suite", "main,ramanujan,returns,chi,visits,girth",
             "--k", "1..2", "--samples", "50"],
            # on the roses, k = 1 at x = y takes the radial route through
            # treewalk.return_probability; elsewhere it stops at no walks
            ["kappa", "--in", g, "--x", "0", "--y", "0", "--k", "1", "--mmax", "2"],
        ]
        for method in ("auto", "exact", "mc"):
            runs.append(["kappa", "--in", g, "--x", "0", "--y", "0", "--k", "2", "--mmax", "1",
                         "--method", method, "--samples", "50", "--json"])
    return runs


def _functions():
    """(file, first line) -> 'module.qualname' for every top-level function
    and every method of a top-level class in the package, and
    'module.qualname' -> its line count."""
    out, lines = {}, {}

    def first_line(node):
        return min([node.lineno] + [d.lineno for d in node.decorator_list])

    for path in sorted(PKG.glob("*.py")):
        mod = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                out[str(path), first_line(node)] = f"{mod}.{node.name}"
                lines[f"{mod}.{node.name}"] = node.end_lineno - first_line(node) + 1
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        out[str(path), first_line(item)] = f"{mod}.{node.name}.{item.name}"
                        lines[f"{mod}.{node.name}.{item.name}"] = (
                            item.end_lineno - first_line(item) + 1)
    return out, lines


def _perfbench_names():
    """Package names that perfbench/ binds: tracer.TARGETS and every
    `from serregraph.X import Y` in its sources."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    names = {f"{mod.split('.', 1)[1]}.{attr}" for mod, attr, *_ in tracer.TARGETS}
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("serregraph."):
                mod = node.module.split(".", 1)[1]
                names |= {f"{mod}.{alias.name}" for alias in node.names}
    return names, {mod.split(".", 1)[1] for mod, *_ in tracer.TARGETS}


def test_every_package_function_has_a_caller_or_a_reason(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROFILED, json.dumps(_matrix(tmp_path))],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(PKG.parent)},
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert set(run["codes"]) <= {0, 1, 2} and run["codes"].count(0) > len(run["codes"]) // 2

    functions, lines = _functions()
    reached = {functions[f, line] for f, line in run["entered"] if (f, line) in functions}
    defined = set(functions.values())
    bound, traced_modules = _perfbench_names()
    assert TRACER_MODULES <= traced_modules

    classes = {name.rsplit(".", 1)[0] for name in defined if name.count(".") == 2}
    assert sorted(bound - defined - classes) == [], "names perfbench binds that are gone"

    listed = TRACER_CALLEES | PAPER_CHECKS | TEST_ORACLES | KEPT
    lists = (TRACER_CALLEES, PAPER_CHECKS, TEST_ORACLES, KEPT)
    assert len(listed) == sum(map(len, lists)), "a name is on two lists"
    assert sorted(listed - defined) == [], "listed names that no longer exist"
    assert sorted(listed & reached) == [], "listed names a command reaches"

    exempt = listed | bound | {n for n in defined if n.split(".", 1)[0] in TRACER_MODULES}
    assert sorted(defined - reached - exempt) == [], "unreached and unlisted"
    unreached_lines = sum(lines[n] for n in defined - reached)
    assert unreached_lines <= UNREACHED_LINE_CEILING, f"{unreached_lines} unreached lines"
