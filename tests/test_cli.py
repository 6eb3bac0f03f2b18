"""End-to-end checks of the command line layer: exit codes, exact-string
JSON, CSV shapes, manifest replay."""

import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from serregraph import __version__
from serregraph import treewalk as tw
from serregraph.cli import main, _parse_krange, _parse_stats
from serregraph.core import Walk, complete_graph, validate
from serregraph.fungroup import homotopy_class
from serregraph.sgf import dumps, load_path


@pytest.fixture()
def k4_path(tmp_path):
    p = tmp_path / "k4.sgf"
    p.write_text(dumps(complete_graph(4)))
    return str(p)


@pytest.fixture()
def pet_path(tmp_path):
    from serregraph.core import petersen

    p = tmp_path / "pet.sgf"
    p.write_text(dumps(petersen()))
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


# -- treewalk ----------------------------------------------------------------------


def test_tables_exact_strings(capsys):
    assert main(["treewalk", "tables", "--d", "3", "--nmax", "4"]) == 0
    data = _json_out(capsys)
    assert data["return_probabilities"][2] == "1/3"
    assert data["return_probabilities"][3] == "0"
    assert data["nullcycle_counts"] == [1, 0, 3, 0, 15]


def test_check_bounds_csv(capsys):
    assert main(["treewalk", "check-bounds", "--d", "4", "--nmax", "10"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,lhs,r_n,rhs,margin"
    assert len(lines) == 6
    for line in lines[1:]:
        n, lhs, r_n, rhs, margin = line.split(",")
        val = float(Fraction(r_n))
        assert float(lhs) < val < float(rhs)
        assert float(margin) > 0


# -- spectrum / cogrowth -----------------------------------------------------------


def test_spectrum_human(pet_path, capsys):
    assert main(["spectrum", "--in", pet_path]) == 0
    out = capsys.readouterr().out
    assert "10 vertices, d=3" in out
    assert "ramanujan True" in out
    assert "weakly_ramanujan_mass 9/10" in out


def test_spectrum_json(pet_path, capsys):
    assert main(["spectrum", "--in", pet_path, "--json"]) == 0
    data = _json_out(capsys)
    assert data["d"] == 3
    assert data["rho"] == pytest.approx(2 / 3, abs=1e-12)
    assert data["ramanujan"] is True
    assert data["weakly_ramanujan_mass"] == "9/10"
    assert len(data["eigenvalues"]) == 10


def test_cogrowth_rose(tmp_path, capsys):
    from serregraph.core import rose

    p = tmp_path / "rose3.sgf"
    p.write_text(dumps(rose(3)))
    assert main(["cogrowth", "--in", str(p)]) == 0
    data = _json_out(capsys)
    assert data["alpha"] == pytest.approx(5.0, abs=1e-10)
    assert data["degenerate"] is False


def test_cogrowth_with_cover(k4_path, capsys):
    assert main(["cogrowth", "--in", k4_path, "--m", "3"]) == 0
    data = _json_out(capsys)
    assert data["m"] == 3
    assert data["rho_cover"] is not None


def test_cogrowth_half_loop_cover_is_a_forest(tmp_path, capsys):
    from serregraph.core import half_loop_rose

    p = tmp_path / "hl1.sgf"
    p.write_text(dumps(half_loop_rose(1)))
    assert main(["cogrowth", "--in", str(p), "--m", "3"]) == 0
    data = _json_out(capsys)
    assert data["alpha"] == 0.0 and data["degenerate"] is True
    assert data["method"] == "acyclic"
    assert data["rho_cover"] == 2.0 * 2.0 ** 0.5 / 3


# -- nullcycle sampling ------------------------------------------------------------


def test_nullcycle_sample_stream(k4_path, capsys):
    args = [
        "nullcycle", "sample", "--in", k4_path, "--root", "1", "--n", "6",
        "--seed", "11", "--count", "4", "--stats", "visits,chi:k=2:l=50",
    ]
    assert main(args) == 0
    first = capsys.readouterr().out
    recs = [json.loads(line) for line in first.strip().splitlines()]
    assert [r["draw"] for r in recs] == [0, 1, 2, 3]
    g = load_path(k4_path)
    for r in recs:
        assert len(r["edges"]) == 6
        assert homotopy_class(g, Walk(1, tuple(r["edges"]))) == ()
        assert 1 <= r["visits"] <= 7
        assert "chi_k2_l50" in r
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_stats_parser_rejects_unknown():
    with pytest.raises(ValueError):
        _parse_stats("median")
    assert _parse_stats("visits,chi:k=3:l=100") == [
        ("visits", None, None),
        ("chi", 3, 100),
    ]


@pytest.fixture()
def cfg3_256_path(tmp_path):
    from serregraph.limits import configuration_model

    p = tmp_path / "cfg3-256-s1.sgf"
    p.write_text(dumps(configuration_model(3, 256, seed=1)))
    return str(p)


# frozen stdout of the seeded draws: every walk is pinned edge for edge
NULLCYCLE_CFG3_256 = (
    '{"chi_k2_l50": 0, "draw": 0, "edges": [365, 364, 753, 752, 365, 364, 136, 175, 174, '
    "666, 667, 666, 313, 276, 277, 312, 667, 137, 753, 752, 365, 275, 274, 275, 274, 275, "
    '274, 63, 765, 161, 160, 764, 765, 764, 62, 364, 365, 364, 753, 752], "n": 40, '
    '"root": 0, "visits": 9}\n'
    '{"chi_k2_l50": 0, "draw": 1, "edges": [136, 666, 313, 613, 239, 238, 385, 384, 239, '
    "138, 552, 553, 139, 238, 239, 238, 612, 613, 385, 384, 612, 613, 385, 384, 612, 613, "
    '612, 276, 218, 622, 623, 328, 329, 219, 277, 312, 667, 137, 753, 752], "n": 40, '
    '"root": 0, "visits": 3}\n'
    '{"chi_k2_l50": 0, "draw": 2, "edges": [753, 30, 475, 92, 127, 126, 93, 92, 93, 49, 48, '
    "474, 31, 752, 753, 614, 209, 228, 457, 146, 147, 456, 229, 208, 615, 752, 365, 364, "
    '753, 614, 615, 752, 365, 364, 136, 137, 365, 364, 753, 752], "n": 40, "root": 0, '
    '"visits": 9}\n'
    '{"chi_k2_l50": 0, "draw": 3, "edges": [136, 666, 642, 220, 182, 205, 168, 169, 168, '
    "169, 698, 699, 168, 554, 555, 169, 168, 169, 204, 321, 320, 205, 204, 183, 221, 500, "
    '501, 220, 221, 643, 642, 500, 501, 500, 501, 643, 667, 137, 136, 137], "n": 40, '
    '"root": 0, "visits": 3}\n'
)


def test_nullcycle_sample_output_is_pinned(cfg3_256_path, capsys, monkeypatch):
    # tables built at the job's own length, as in a fresh process
    monkeypatch.setattr(tw, "_MEMO", {})
    args = ["nullcycle", "sample", "--in", cfg3_256_path, "--root", "0", "--n", "40",
            "--count", "4", "--seed", "7", "--stats", "visits,chi:k=2:l=50"]
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == NULLCYCLE_CFG3_256 and out.err == ""


# -- census ------------------------------------------------------------------------


def test_census_uniform_petersen(pet_path, tmp_path, capsys):
    jpath = tmp_path / "cen.json"
    assert main(["census", "--in", pet_path, "--k", "5", "--json-out", str(jpath)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertex,gamma_5"
    assert len(lines) == 11
    assert all(line.endswith(",12") for line in lines[1:])
    data = json.loads(jpath.read_text())
    assert data["density_exact"] == "12"
    assert data["mean"] == "12"
    assert data["nv"] == 10


def test_census_at_an_isolated_vertex(tmp_path, capsys):
    from serregraph.core import from_edges

    graph = tmp_path / "isolated.sgf"
    graph.write_text(dumps(from_edges(4, [(0, 1), (1, 2), (2, 0)], half_loops=[0, 1, 2])))
    assert main(["census", "--in", str(graph), "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertex,gamma_3"
    assert lines[4] == "3,0"


def test_census_on_a_graph_with_no_vertices_exit_one(tmp_path, capsys):
    graph = tmp_path / "empty.sgf"
    graph.write_text("sgf 1 0 0\n")
    assert main(["census", "--in", str(graph), "--k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: graph has no vertices\n"


def test_census_over_budget_names_what_works(pet_path, capsys):
    # the census is exact or raises: the error names the budget it passed
    assert main(["census", "--in", pet_path, "--k", "17"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: enumeration budget exceeded: 3^17 > 100000000 = census.ENUM_BUDGET\n")


def test_census_json_renders_a_zero_density_as_zero(tmp_path, capsys):
    from serregraph.core import tree_ball

    graph, jpath = tmp_path / "tree.sgf", tmp_path / "cen.json"
    graph.write_text(dumps(tree_ball(3, 2).graph))
    assert main(["census", "--in", str(graph), "--k", "4", "--json-out", str(jpath)]) == 0
    data = json.loads(jpath.read_text())
    assert data["density_exact"] == data["mean"] == "0"


# -- bounds verify -----------------------------------------------------------------


def test_bounds_gated_exit_two(pet_path, capsys):
    assert main(["bounds", "verify", "--in", pet_path, "--suite", "main"]) == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert all("not applicable" in line for line in lines[1:])
    assert all("|G| >= 8d" in line for line in lines[1:])


def test_bounds_pass_exit_zero(tmp_path, capsys):
    from serregraph.limits import configuration_model

    p = tmp_path / "cfg.sgf"
    p.write_text(dumps(configuration_model(3, 64, seed=0)))
    rc = main(["bounds", "verify", "--in", str(p), "--suite", "main,returns", "--k", "1..2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    verdicts = [line.split(",")[3] for line in lines[1:]]
    assert "pass" in verdicts and "fail" not in verdicts


def test_bounds_girth_always_gated_small(k4_path, capsys):
    assert main(["bounds", "verify", "--in", k4_path, "--suite", "girth"]) == 2
    out = capsys.readouterr().out
    assert "floor(beta lnln|G|) >= 1" in out


# frozen stdout: the tree-ball fraction and every other cell stay bit for bit
GIRTH_CFG3_64 = (
    "suite,k,name,verdict,lhs,rhs,margin,tolerance,failed_hypotheses,notes\n"
    "girth,0,essential-girth beta=0.048090,not applicable,0.921875,0.06624377036409623,"
    "0.8556312296359038,0.0,floor(beta lnln|G|) >= 1,"
    "informational below radius 1: displayed fraction uses r=1\n"
)


# frozen stdout of the chi and visits suites: exact chi rows from the first
# moment (--samples and --seed feed no suite), and exact visits rows (root 0
# has no nontrivial closed 2- or 3-walk)
WALKS_CFG3_256 = (
    "suite,k,name,verdict,lhs,rhs,margin,tolerance,failed_hypotheses,notes\n"
    "chi,2,chi-exp-lower n=200 k=2,pass,2.7558902768207063e+188,3.336140306958127e+176,"
    "2.75589027681737e+188,3.3361403076651474e+167,,\n"
    "chi,3,chi-exp-lower n=200 k=3,pass,7.320030093299977e+283,3.772369572417275e+266,"
    "7.320030093299977e+283,3.772369572420398e+257,,\n"
    "visits,2,density-to-visits n=200 k=2,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,\n"
    "visits,3,density-to-visits n=200 k=3,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,\n"
)


def test_bounds_walks_output_is_pinned(cfg3_256_path, capsys, monkeypatch):
    monkeypatch.setattr(tw, "_MEMO", {})
    args = ["bounds", "verify", "--in", cfg3_256_path, "--suite", "chi,visits", "--k", "2,3",
            "--n", "200", "--samples", "250", "--seed", "5"]
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == WALKS_CFG3_256 and out.err == ""


# the default lengths on Petersen: d^n is small enough that the chi rhs was
# once the exact sum of exp(c_k chi/ell) over every nullcycle, and it reads the
# same from the first moment
WALKS_PETERSEN_EXACT = (
    "suite,k,name,verdict,lhs,rhs,margin,tolerance,failed_hypotheses,notes\n"
    "chi,1,chi-exp-lower n=4 k=1,pass,15.0,1.0714285714285714,13.928571428571429,"
    "2.0714285714300247e-09,,\n"
    "chi,2,chi-exp-lower n=4 k=2,pass,759.0,38.785714285714285,720.2142857142857,"
    "3.978571428571758e-08,,\n"
    "chi,3,chi-exp-lower n=4 k=3,pass,54783.0,1701.642857142857,53081.357142857145,"
    "1.7026428571428578e-06,,\n"
    "visits,1,density-to-visits n=4 k=1,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,\n"
    "visits,2,density-to-visits n=6 k=2,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,\n"
    "visits,3,density-to-visits n=8 k=3,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,\n"
)


def test_bounds_exact_walks_output_is_pinned(pet_path, capsys):
    args = ["bounds", "verify", "--in", pet_path, "--suite", "chi,visits", "--k", "1..3"]
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == WALKS_PETERSEN_EXACT and out.err == ""


def test_bounds_visits_row_below_one_segment(pet_path, capsys):
    # n = 2 < k = 3: no length-k segment, so chi is 0 on every nullcycle
    args = ["bounds", "verify", "--in", pet_path, "--suite", "visits", "--k", "3", "--n", "2"]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out.splitlines()[1] == (
        "visits,3,density-to-visits n=2 k=3,not applicable,0.0,0.0,0.0,1e-12,2k+2 <= n <= sqrt|G|,"
    )


def test_bounds_girth_output_is_pinned(tmp_path, capsys):
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    path = str(tmp_path / "cfg3-64-s0.sgf")
    assert main(["bounds", "verify", "--in", path, "--suite", "girth"]) == 2
    out = capsys.readouterr()
    assert out.out == GIRTH_CFG3_64 and out.err == ""


@pytest.mark.parametrize("fixture", ["rose2.sgf", "hlrose3.sgf"])
def test_bounds_one_vertex_rows_not_applicable(fixture, tmp_path, capsys):
    # log log |G| is undefined at |G| = 1: each suite that takes it gives a
    # gated row with no right side, not an error
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    path = str(tmp_path / fixture)
    args = ["bounds", "verify", "--in", path, "--suite", "main,ramanujan,girth"]
    assert main(args) == 2
    out = capsys.readouterr()
    assert out.err == ""
    rows = [line.split(",") for line in out.out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["main"] * 3 + ["ramanujan"] * 3 + ["girth"]
    for r in rows:
        assert r[3] == "not applicable" and r[5] == "nan" and r[8]
    assert all("|G| >= 8d" in r[8] for r in rows[:6])


def test_bounds_shared_values_match_direct_verdicts(tmp_path, capsys, monkeypatch):
    import csv
    import io

    from serregraph import bounds, census, spectral
    from serregraph.limits import configuration_model

    p = tmp_path / "cfg.sgf"
    p.write_text(dumps(configuration_model(3, 128, seed=0)))
    owners = {"rho": spectral, "cycle_census": census}
    calls = dict.fromkeys(owners, 0)

    def counted(name):
        fn = getattr(owners[name], name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # the CLI reads both from their modules when the command runs
    for name, owner in owners.items():
        monkeypatch.setattr(owner, name, counted(name))
    suites = "main,ramanujan,returns"
    rc = main(["bounds", "verify", "--in", str(p), "--suite", suites, "--k", "1..3"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert calls == {"rho": 1, "cycle_census": 3}

    g = load_path(str(p))
    rho = spectral.markov_spectrum(g).rho
    gamma = {k: census.cycle_census(g, k).density for k in (1, 2, 3)}
    diag = spectral.diag_power_counts_batch(g, (2, 4, 6))
    direct = {
        "main": lambda k: bounds.thm_main_finite(g, k, rho, gamma[k]),
        "ramanujan": lambda k: bounds.thm_main_ramanujan(g, k, rho, gamma[k]),
        "returns": lambda k: bounds.thm_main_returns(g, 4, k, gamma[k], diag[2 * k]),
    }
    assert [(r["suite"], r["k"]) for r in rows] == [
        (s, str(k)) for s in direct for k in (1, 2, 3)
    ]
    for r in rows:
        rep = direct[r["suite"]](int(r["k"]))
        assert (r["lhs"], r["rhs"], r["margin"], r["verdict"]) == (
            str(rep.lhs),
            str(rep.rhs),
            str(rep.margin),
            rep.verdict,
        )
    assert rc == 0


def test_bounds_visits_shares_the_eigensolve(tmp_path, capsys, monkeypatch):
    import csv
    import io

    from serregraph import bounds, census, nullcycles, spectral
    from serregraph.limits import configuration_model

    p = tmp_path / "cfg.sgf"
    p.write_text(dumps(configuration_model(3, 128, seed=0)))
    calls = 0
    solve = spectral.rho

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return solve(*args, **kwargs)

    # the verdict functions take rho from the CLI, which solves once per job
    monkeypatch.setattr(spectral, "rho", counted)
    argv = ["bounds", "verify", "--in", str(p), "--suite", "chi,visits", "--k", "2,3"]
    main(argv + ["--samples", "200"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert calls == 1

    g = load_path(str(p))
    rho = spectral.markov_spectrum(g).rho
    direct = {
        "chi": lambda k: bounds.thm_43_lower(g, 4, k, nullcycles.chi_moments(g, 0, 4, [k])[k]),
        "visits": lambda k: bounds.lemma_visits_lower(
            g, 0, 2 * k + 2, k, rho, census.gamma_k(g, 0, k)
        ),
    }
    assert [(r["suite"], r["k"]) for r in rows] == [(s, str(k)) for s in direct for k in (2, 3)]
    for r in rows:
        rep = direct[r["suite"]](int(r["k"]))
        assert (r["lhs"], r["rhs"], r["margin"], r["verdict"], r["failed_hypotheses"]) == (
            str(rep.lhs),
            str(rep.rhs),
            str(rep.margin),
            rep.verdict,
            ";".join(h.name for h in rep.hypotheses if not h.ok),
        )


def test_bounds_returns_past_the_float64_window(tmp_path, capsys):
    # nk = 60 on 512 vertices: 3^60 >= 2^64, far past the float64-exact range
    from serregraph import bounds
    from serregraph.limits import configuration_model
    from serregraph.spectral import walk_counts

    g = configuration_model(3, 512, seed=0)
    p = tmp_path / "cfg.sgf"
    p.write_text(dumps(g))
    rc = main(["bounds", "verify", "--in", str(p), "--suite", "returns", "--n", "20", "--k", "3"])
    assert rc == 2
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[:4] == ["returns", "3", "main-returns n=20 k=3", "not applicable"]
    assert row[8] == "|G| >= (nk)^2"
    per_root = [sum(c * c for c in walk_counts(g, o, 30)[30]) for o in range(g.nv)]
    assert float(row[4]) == bounds.mean_log_return(g, 60, diag_counts=per_root)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bounds", "verify", "--suite", "returns", "--n", "0"], "n must be >= 1"),
        (["bounds", "verify", "--suite", "returns", "--n", "-2"], "n must be >= 1"),
        (["bounds", "verify", "--suite", "chi", "--n", "3", "--k", "1..2"],
         "nk must be positive and even"),
        (["bounds", "verify", "--suite", "visits", "--n", "5", "--k", "2"],
         "n must be positive and even"),
        (["kappa", "--x", "0", "--y", "0", "--k", "2", "--mmax", "2", "--method", "mc",
          "--samples", "0"],
         "samples must be >= 1"),
        (["nullcycle", "sample", "--root", "0", "--n", "4", "--stats", "chi:k=0:l=1"],
         "k must be >= 1"),
    ],
    ids=["returns-n0", "returns-n-2", "chi-nk-odd", "visits-n-odd", "kappa-mc-samples0",
         "chi-stat-k0"],
)
def test_parameter_errors_name_the_parameter(pet_path, argv, message, capsys):
    assert main(argv + ["--in", pet_path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_bounds_unknown_suite(k4_path, capsys):
    assert main(["bounds", "verify", "--in", k4_path, "--suite", "nosuch"]) == 1
    assert "unknown suite" in capsys.readouterr().err


def test_krange_parser():
    assert _parse_krange("2") == [2]
    assert _parse_krange("1,3,5") == [1, 3, 5]
    assert _parse_krange("1..4") == [1, 2, 3, 4]
    with pytest.raises(ValueError):
        _parse_krange("0..2")


# -- kappa -------------------------------------------------------------------------


def test_kappa_exact_rational(k4_path, capsys):
    args = [
        "kappa", "--in", k4_path, "--x", "0", "--y", "0", "--k", "3",
        "--mmax", "1", "--method", "exact", "--json",
    ]
    assert main(args) == 0
    data = _json_out(capsys)
    assert data["p_even"] == ["11/216"]
    assert data["method"] == "word-dp"
    assert data["kappa"][0] == pytest.approx((11 / 216) ** (1 / 4))


# off-diagonal estimates frozen from the release that conjugated every walk
# by a BFS path back to x: the pair steps cancel that path, so the rationals
# and the seeded stream must not move without it
_ONE = {"kappa": [1.0, 1.0], "truncated": False, "x": 0, "y": 2, "k": 2}
_ONE_DP = {**_ONE, "method": "word-dp", "p_even": ["1", "1"], "stderr": None}
_ONE_MC = {**_ONE, "method": "monte-carlo", "p_even": [1.0, 1.0], "stderr": [0.0, 0.0]}
_C6_K4_DP = {
    "k": 4, "x": 0, "y": 2, "truncated": False, "method": "word-dp", "stderr": None,
    "kappa": [0.8465570947589753, 0.8800491354874562, 0.9021635477804676],
    "p_even": ["321/625", "28109/78125", "70968129/244140625"],
}
KAPPA_OFF_DIAGONAL = {
    ("c6", 2, "auto"): _ONE_DP,
    ("c6", 2, "exact"): _ONE_DP,
    ("c6", 2, "mc"): _ONE_MC,
    ("cfg3-64-s0", 2, "auto"): _ONE_DP,
    ("cfg3-64-s0", 2, "exact"): _ONE_DP,
    ("cfg3-64-s0", 2, "mc"): _ONE_MC,
    ("c6", 4, "auto"): _C6_K4_DP,
    ("c6", 4, "exact"): _C6_K4_DP,
    ("c6", 4, "mc"): {
        "k": 4, "x": 0, "y": 2, "truncated": False, "method": "monte-carlo",
        "kappa": [0.8434078312128419, 0.8923356760098983, 0.9025028269794351],
        "p_even": [0.506, 0.402, 0.292],
        "stderr": [0.02235906974809104, 0.021926969694875762, 0.0203340109176719],
    },
}


@pytest.mark.parametrize("case", sorted(KAPPA_OFF_DIAGONAL), ids=lambda c: f"{c[0]}-k{c[1]}-{c[2]}")
def test_kappa_off_diagonal_output_is_pinned(case, tmp_path, capsys):
    name, k, method = case
    assert main(["fixtures", "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    args = ["kappa", "--in", str(tmp_path / f"{name}.sgf"), "--x", "0", "--y", "2", "--k", str(k),
            "--mmax", str(len(KAPPA_OFF_DIAGONAL[case]["kappa"])), "--method", method,
            "--samples", "500", "--seed", "3", "--json"]
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == json.dumps(KAPPA_OFF_DIAGONAL[case], indent=2, sort_keys=True) + "\n"


# -- limits ------------------------------------------------------------------------


def test_limits_fleet_csv(capsys):
    args = [
        "limits", "fleet", "--d", "3", "--sizes", "16,32",
        "--seeds", "2", "--r", "1", "--kmax", "2",
    ]
    assert main(args) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "label,nv,tv_tree,w1_km,density_1,density_2"
    assert len(lines) == 5
    assert lines[1].startswith("cfg-d3-n16-s0,16,")
    assert lines[4].startswith("cfg-d3-n32-s1,32,")


# frozen stdout, tv_tree and w1_km included
FLEET_3_64_128 = (
    "label,nv,tv_tree,w1_km,density_1,density_2,density_3\n"
    "cfg-d3-n64-s0,64,0.28125,0.013647688081890891,0.0,0.0625,0.09375\n"
    "cfg-d3-n64-s1,64,0.53125,0.035481733131961665,0.09375,0.21875,0.65625\n"
    "cfg-d3-n128-s0,128,0.21875,0.010547325967019064,0.0,0.09375,0.0\n"
    "cfg-d3-n128-s1,128,0.28125,0.012201483798510125,0.03125,0.0625,0.265625\n"
)


def test_limits_fleet_output_is_pinned(capsys):
    args = ["limits", "fleet", "--d", "3", "--sizes", "64,128", "--seeds", "2",
            "--r", "2", "--kmax", "3"]
    assert main(args) == 0
    out = capsys.readouterr()
    assert out.out == FLEET_3_64_128 and out.err == ""


# frozen stdout of `spectrum --json`, `cogrowth` and `cogrowth --m 6` on the
# fixtures and on a triangle with a pendant edge (cogrowth's power route);
# spectrum needs a regular graph, so the pendant graph has no spectrum entry
SPECTRAL_PINNED = json.loads(
    (Path(__file__).parent / "data" / "spectral_cli_pinned.json").read_text())
SPECTRAL_COMMANDS = {
    "spectrum --json": ["spectrum", "--json"],
    "cogrowth": ["cogrowth"],
    "cogrowth --m 6": ["cogrowth", "--m", "6"],
}


@pytest.fixture(scope="module")
def spectral_fixture_dir(tmp_path_factory):
    from serregraph.core import from_edges

    out = tmp_path_factory.mktemp("spectral-fixtures")
    assert main(["fixtures", "--out-dir", str(out)]) == 0
    (out / "tripend.sgf").write_text(dumps(from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])))
    return out


@pytest.mark.parametrize("fixture,command", [
    (f, c) for f, outs in sorted(SPECTRAL_PINNED.items()) for c in sorted(outs)])
def test_spectral_outputs_are_pinned(fixture, command, spectral_fixture_dir, capsys):
    capsys.readouterr()
    cmd, *rest = SPECTRAL_COMMANDS[command]
    assert main([cmd, "--in", str(spectral_fixture_dir / fixture), *rest]) == 0
    out = capsys.readouterr()
    assert out.out == SPECTRAL_PINNED[fixture][command] and out.err == ""


# -- percolation -------------------------------------------------------------------


def test_percolation_growth_summary(capsys):
    args = ["percolation", "growth", "--p", "0.9", "--size", "80", "--seed", "1", "--nmax", "12"]
    assert main(args) == 0
    data = _json_out(capsys)
    assert data["cluster_size"] > 1000
    assert 2.0 < data["growth"] < 3.2
    assert data["boundary_clean"] is True
    assert data["tail_start"] == 10


def test_percolation_csv_rows(tmp_path, capsys):
    csv = tmp_path / "growth.csv"
    args = [
        "percolation", "growth", "--p", "0.85", "--size", "60",
        "--seed", "2", "--nmax", "10", "--csv", str(csv),
    ]
    assert main(args) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "n,sphere_size,rate"
    assert len(lines) == 11
    summary = _json_out(capsys)
    assert summary["p"] == 0.85


GROWTH_CSV = """n,sphere_size,rate
1,4,4.0
2,9,3.0000000000000004
3,26,2.9624960684073707
4,69,2.882121417102006
5,180,2.825234500494767
6,461,2.7793942469141193
7,1163,2.7411951783947575
8,3030,2.7238320679225416
9,7819,2.70752426204251
10,20450,2.6981701368236277
"""

GROWTH_SUMMARY = """{
  "border_distance": 33,
  "boundary_clean": true,
  "cluster_size": 3024,
  "growth": 2.6981701368236277,
  "p": 0.85,
  "seed": 2,
  "size": 60,
  "tail_start": 8
}
"""


def test_percolation_csv_counts_spheres_once(tmp_path, capsys, monkeypatch):
    from serregraph import percolation

    calls = []
    count = percolation.cover_sphere_sizes
    monkeypatch.setattr(percolation, "cover_sphere_sizes",
                        lambda *a: calls.append(a) or count(*a))
    csv = tmp_path / "growth.csv"
    args = ["percolation", "growth", "--p", "0.85", "--size", "60", "--seed", "2", "--nmax", "10"]
    assert main(args + ["--csv", str(csv)]) == 0
    assert len(calls) == 1
    assert csv.read_text() == GROWTH_CSV
    assert capsys.readouterr().out == GROWTH_SUMMARY
    assert main(args + ["--csv"]) == 0
    assert len(calls) == 2
    assert capsys.readouterr().out == GROWTH_CSV


def test_percolation_closed_origin_errors(capsys):
    args = ["percolation", "growth", "--p", "0.4", "--size", "21", "--seed", "0"]
    assert main(args) == 1
    assert "origin closed" in capsys.readouterr().err


def test_percolation_negative_seed_errors(capsys):
    args = ["percolation", "growth", "--p", "0.9", "--size", "21", "--seed", "-1"]
    assert main(args) == 1
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: seed must be >= 0\n"


# -- fixtures ----------------------------------------------------------------------


def test_fixtures_roundtrip(tmp_path, capsys):
    outdir = tmp_path / "fx"
    assert main(["fixtures", "--out-dir", str(outdir)]) == 0
    files = sorted(p.name for p in outdir.glob("*.sgf"))
    assert "k4.sgf" in files and "pet.sgf" in files and len(files) == 8
    for p in outdir.glob("*.sgf"):
        g = load_path(p)
        assert validate(g).ok
    # the log's digests are those of the bytes written
    digests = {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in outdir.glob("*.sgf")}
    logged = dict(
        line.removeprefix("wrote ").split(" sha256=")
        for line in capsys.readouterr().out.splitlines()
    )
    assert logged == digests


# -- manifest and errors -----------------------------------------------------------


def test_manifest_replay(tmp_path, capsys):
    out = tmp_path / "t.json"
    man1 = tmp_path / "m1.json"
    man2 = tmp_path / "m2.json"
    base = ["treewalk", "tables", "--d", "3", "--nmax", "6", "--out", str(out)]
    assert main(["--manifest", str(man1)] + base) == 0
    first = out.read_bytes()
    assert main(["--manifest", str(man2)] + base) == 0
    assert out.read_bytes() == first
    m1 = json.loads(man1.read_text())
    m2 = json.loads(man2.read_text())
    assert m1["subcommand"] == "treewalk"
    assert m1["version"] == __version__
    assert [3, 6] in m1["table_cache_keys"] or any(
        key[0] == 3 and key[1] >= 6 for key in m1["table_cache_keys"]
    )
    d1 = [x["sha256"] for x in m1["output_digests"]]
    d2 = [x["sha256"] for x in m2["output_digests"]]
    assert d1 == d2
    assert d1[0] == hashlib.sha256(first).hexdigest()


def test_manifest_digests_are_the_artifact_bytes(tmp_path, k4_path, capsys):
    man = tmp_path / "m.json"
    csv_path, json_path = tmp_path / "c.csv", tmp_path / "c.json"
    args = ["--manifest", str(man), "census", "--in", k4_path, "--k", "3",
            "--csv", str(csv_path), "--json-out", str(json_path)]
    assert main(args) == 0
    assert capsys.readouterr().out == ""
    recorded = {x["artifact"]: x["sha256"] for x in json.loads(man.read_text())["output_digests"]}
    assert recorded == {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in (csv_path, json_path)
    }


def test_digests_only_for_manifest_and_fixtures(tmp_path, k4_path, monkeypatch):
    sha256 = hashlib.sha256
    calls = []

    def counted(data):
        calls.append(data)
        return sha256(data)

    monkeypatch.setattr(hashlib, "sha256", counted)
    perc = ["percolation", "growth", "--p", "0.9", "--size", "30", "--seed", "1", "--nmax", "6"]
    census = ["census", "--in", k4_path, "--k", "3"]
    assert main(perc) == 0 and main(census + ["--csv"]) == 0
    assert calls == []
    assert main(["--manifest", str(tmp_path / "m.json")] + perc) == 0
    assert len(calls) == 1
    assert main(["fixtures", "--out-dir", str(tmp_path / "fx")]) == 0
    assert len(calls) == 1 + 8 + 1  # each fixture, then the log


def test_manifest_records_seeds(tmp_path, k4_path):
    man = tmp_path / "m.json"
    out = tmp_path / "d.jsonl"
    args = [
        "--manifest", str(man), "nullcycle", "sample", "--in", k4_path,
        "--root", "0", "--n", "4", "--seed", "17", "--count", "2", "--out", str(out),
    ]
    assert main(args) == 0
    m = json.loads(man.read_text())
    assert m["seeds"] == [17]
    assert m["params"]["seed"] == 17


SEED = ["--seed", "17"]


@pytest.mark.parametrize("argv, seeds", [
    (["bounds", "verify", "--suite", "main,visits", "--k", "1", *SEED], []),
    (["census", "--k", "2"], []),
    (["kappa", "--x", "0", "--y", "0", "--k", "3", "--mmax", "1", *SEED], []),
    (["kappa", "--x", "0", "--y", "0", "--k", "3", "--mmax", "1", "--method", "exact", *SEED],
     []),
    (["kappa", "--x", "0", "--y", "0", "--k", "3", "--mmax", "1", "--method", "mc",
      "--samples", "10", *SEED], [17]),
], ids=["bounds", "census", "kappa-auto", "kappa-exact", "kappa-mc"])
def test_manifest_records_a_seed_only_when_the_run_draws(tmp_path, k4_path, capsys, argv, seeds):
    man = tmp_path / "m.json"
    assert main(["--manifest", str(man), *argv, "--in", k4_path]) != 1
    m = json.loads(man.read_text())
    assert m["seeds"] == seeds
    # the census takes no --seed, so its params hold none
    assert m["params"].get("seed") == (17 if "--seed" in argv else None)


def test_manifest_lists_the_fleet_seeds_not_their_count(tmp_path):
    man = tmp_path / "m.json"
    args = ["--manifest", str(man), "limits", "fleet", "--d", "3", "--sizes", "16",
            "--seeds", "3", "--kmax", "1", "--csv", str(tmp_path / "f.csv")]
    assert main(args) == 0
    m = json.loads(man.read_text())
    assert m["seeds"] == [0, 1, 2]
    assert m["params"]["seeds"] == 3


@pytest.mark.parametrize("root", ["99", "-1"])
def test_nullcycle_root_out_of_range_exit_one(pet_path, root, capsys):
    args = ["nullcycle", "sample", "--in", pet_path, "--root", root, "--n", "4"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: root {root} is not a vertex (0..9)")


def test_nullcycle_negative_count_exit_one(pet_path, capsys):
    args = ["nullcycle", "sample", "--in", pet_path, "--root", "0", "--n", "4", "--count", "-2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: count must be >= 0, got -2\n"


def test_nullcycle_negative_length_exit_one(pet_path, capsys):
    # a negative length used to print empty walks with "n": -2
    args = ["nullcycle", "sample", "--in", pet_path, "--root", "0", "--n", "-2", "--count", "2"]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 0, got -2\n"


def test_nullcycle_zero_draws_write_nothing(pet_path, tmp_path, capsys):
    # zero JSON records are zero lines: no blank line for a reader to parse
    args = ["nullcycle", "sample", "--in", pet_path, "--root", "0", "--n", "4", "--count", "0"]
    assert main(args) == 0
    assert capsys.readouterr() == ("", "")
    out = tmp_path / "draws.jsonl"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text() == "" and capsys.readouterr() == ("", "")


@pytest.mark.parametrize("flag", ["--x", "--y"])
def test_kappa_vertex_out_of_range_exit_one(pet_path, flag, capsys):
    args = {"--x": "0", "--y": "0", flag: "99"}
    argv = ["kappa", "--in", pet_path, "--k", "2", "--mmax", "2"]
    for key, val in args.items():
        argv += [key, val]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {flag[2:]} = 99 is not a vertex (0..9)")


def test_bad_sgf_exit_one(tmp_path, capsys):
    p = tmp_path / "bad.sgf"
    p.write_text("not a graph\n")
    assert main(["spectrum", "--in", str(p)]) == 1
    assert "malformed SGF" in capsys.readouterr().err


def test_missing_file_exit_one(tmp_path, capsys):
    assert main(["spectrum", "--in", str(tmp_path / "nope.sgf")]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded():
    # numpy is the one runtime dependency: no package module imports scipy,
    # at module top or inside a function; only the tests and perfbench use it
    import ast

    import serregraph

    found = []
    for path in sorted(Path(serregraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for m in modules if m.split(".")[0] == "scipy"]
    assert found == []


def _run_python(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_bounds_import_leaves_spectral_unloaded():
    # the verdicts compare the rho, gamma_k and return diagonals they are
    # given; only the CLI computes them, so bounds never loads the eigensolver
    code = "import sys, serregraph.bounds; print('serregraph.spectral' in sys.modules)"
    assert _run_python(code) == "False"


def test_bounds_imports_no_sampler_and_no_enumeration():
    # every verdict is exact: bounds reads the chi moments it is given and
    # draws or enumerates no nullcycle
    import ast

    import serregraph

    tree = ast.parse((Path(serregraph.__file__).parent / "bounds.py").read_text())
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert names & {"NullcycleSampler", "enumerate_nullcycles", "chi_statistic"} == set()
    assert not any(isinstance(node, ast.Import) and any(a.name == "random" for a in node.names)
                   for node in ast.walk(tree))


def test_verdict_layers_leave_spectral_and_census_unloaded():
    # a layer that needs rho(G) or gamma_k takes it from its caller, and the
    # census counts its walks without the nullcycle layer
    code = (
        "import sys, serregraph.bounds, serregraph.fungroup, serregraph.nullcycles\n"
        "print([m for m in ('spectral', 'census') if 'serregraph.' + m in sys.modules])"
    )
    assert _run_python(code) == "[]"
    code = (
        "import sys\n"
        "from serregraph.census import cycle_census\n"
        "from serregraph.core import complete_graph\n"
        "cycle_census(complete_graph(4), 3)\n"
        "print('serregraph.nullcycles' in sys.modules)"
    )
    assert _run_python(code) == "False"
    # bounds and fungroup enumerate their walk sets with the core walker
    for mod in ("bounds", "fungroup"):
        code = f"import sys, serregraph.{mod}\nprint('serregraph.nullcycles' in sys.modules)"
        assert _run_python(code) == "False", mod


def test_package_modules_import_each_other_only_at_module_top():
    # a relative import inside a function hides a dependency between layers;
    # absolute imports of other packages (hashlib) may be deferred
    import ast

    import serregraph

    local = set()
    for path in sorted(Path(serregraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local |= {
                    f"{path.name}:{inner.lineno}"
                    for inner in ast.walk(node)
                    if isinstance(inner, ast.ImportFrom) and inner.level > 0
                }
    assert sorted(local) == []


def test_defaulted_parameter_count_stays_within_budget():
    # the ROADMAP tracks this AST count; a new knob must be declared by
    # raising the budget here
    import ast

    import serregraph

    count = 0
    for path in sorted(Path(serregraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
    assert count <= 37, count


def test_cli_import_registers_every_traced_layer_and_runs_without_openssl(tmp_path):
    # perfbench/tracer.py reads each layer module from sys.modules right after
    # `import serregraph.cli`; a digest-free run must not load OpenSSL
    from pathlib import Path

    from serregraph.limits import configuration_model

    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    graph = tmp_path / "cfg.sgf"
    graph.write_text(dumps(configuration_model(3, 64, seed=0)))
    argv = ["bounds", "verify", "--in", str(graph), "--suite", "main,returns",
            "--csv", str(tmp_path / "v.csv")]
    code = (
        f"import sys; sys.path.insert(0, {perfbench!r}); import tracer, serregraph.cli; "
        "missing = sorted({m for m, *_ in tracer.TARGETS} - set(sys.modules)); "
        f"rc = serregraph.cli.main({argv!r}); "
        "print(missing, rc, '_hashlib' in sys.modules)"
    )
    assert _run_python(code) == "[] 0 False"


def test_percolation_growth_executes_no_unrelated_layer():
    # a module LazyLoader registered and never touched is still a _LazyModule
    argv = ["percolation", "growth", "--p", "0.9", "--size", "30", "--seed", "1", "--nmax", "6"]
    code = (
        "import sys, types, serregraph.cli; "
        f"rc = serregraph.cli.main({argv!r}); "
        "print(rc, sorted(n.split('.')[1] for n, m in sys.modules.items() "
        "if n.startswith('serregraph.') and type(m) is types.ModuleType))"
    )
    rc, executed = _run_python(code).split(" ", 1)
    assert rc == "0"
    for name in ("bounds", "census", "fungroup", "nullcycles", "spectral", "treewalk"):
        assert f"'{name}'" not in executed


def test_percolation_growth_runs_without_numpy_random_or_openssl():
    # percolate draws numpy's PCG64 stream itself; numpy.random would load
    # secrets -> hmac -> hashlib and so OpenSSL's _hashlib
    argv = ["percolation", "growth", "--p", "0.9", "--size", "30", "--seed", "1", "--nmax", "6"]
    code = (
        "import sys, serregraph.cli; "
        f"rc = serregraph.cli.main({argv!r}); "
        "print(rc, [m for m in ('numpy.random', 'secrets', '_hashlib') if m in sys.modules])"
    )
    assert _run_python(code) == "0 []"

def test_tracer_installs_every_binding_and_writes_spans(tmp_path):
    # perfbench/tracer.py looks each TARGETS name up by string; a deleted
    # name stops every traced benchmark job before it starts
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(tracer), str(spans), "cli", "treewalk", "tables", "--d", "3",
         "--nmax", "4"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    recorded = json.loads(spans.read_text())["spans"]
    assert recorded[0][:2] == ["cli.run", "cli"]
    assert any(rec[0] == "tables_for" for rec in recorded)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "serregraph", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "treewalk" in proc.stdout and "percolation" in proc.stdout
