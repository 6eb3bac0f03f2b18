"""The four benchmark workloads: inputs from a seed, the job, and its oracle.

Each workload exists so that one layer of serregraph does most of the work
while the others idle (see README.md for the layer-to-workload table):

  verify       bounds verify main,returns on a 3-regular graph with 512
               vertices: the census and the dense eigensolve.
  percolation  percolation growth on a 300x300 window: Python-level graph
               construction and the uint64 non-backtracking kernel.
  walks        chi and visits verdicts with 250 nullcycle draws per check:
               the sampler, chi_statistic and the tree-table cache.
  fleet        ekvivalens_diagnostic on two 4-regular graphs: pattern
               canonical forms.

A run generates a pool of input sets (index 0, 1, ..., sizes["pool"] - 1),
more than it has jobs, and its jobs take them in turn. The program only ever receives generated SGF files and flags; every
seed it sees is derived from the workload seed, so a claim can be re-checked
on a seed it was not developed on.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import oracles

BENCH_DIR = Path(__file__).resolve().parent


@dataclass
class Inputs:
    """What one set-up produced: the job's entry point and arguments."""

    entry: str  # "cli" (serregraph.cli.run) or "fleet" (fleet_job.main)
    argv: list[str]
    files: list[Path] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)

    def command(self, python: str) -> list[str]:
        if self.entry == "cli":
            return [python, "-m", "serregraph", *self.argv]
        return [python, str(BENCH_DIR / "fleet_job.py"), *self.argv]


def _derived(seed: int, index: int, tag: str, count: int = 1) -> list[int]:
    """Seeds for input set `index` of a run with workload seed `seed`."""
    ss = np.random.SeedSequence([seed, index, sum(ord(c) << (8 * i) for i, c in enumerate(tag))])
    return [int(x) for x in ss.generate_state(count)]


def _write_cfg(d: int, n: int, seed: int, path: Path) -> Path:
    from serregraph.limits import configuration_model
    from serregraph.sgf import dump_path

    dump_path(configuration_model(d, n, seed=seed), path)
    return path


def _rows(stdout: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(stdout)))


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(1.0, abs(want))


def _verdict(margin: float, tol: float, applicable: bool) -> str:
    if not applicable:
        return "not applicable"
    if margin >= tol:
        return "pass"
    return "pass within tolerance" if margin >= -tol else "fail"


class Workload:
    name = ""
    why = ""
    sizes: dict = {}
    tiny: dict = {}

    def generate(self, seed: int, index: int, sizes: dict, workdir: Path) -> Inputs:
        """Input set `index` of the run with workload seed `seed`."""
        raise NotImplementedError

    def oracle(self, inputs: Inputs, sizes: dict) -> dict:
        raise NotImplementedError

    def check(self, oracle: dict, stdout: str) -> list[str]:
        """Problems found in one job's output; empty when it agrees."""
        raise NotImplementedError


class Verify(Workload):
    name = "verify"
    why = "bounds verify main,returns k=1..3 on cfg(3,512): the census and the dense eigensolve dominate"
    sizes = {"n": 512, "pool": 24}
    tiny = {"n": 64, "pool": 2}
    D = 3
    KS = (1, 2, 3)
    N_RETURNS = 4  # the CLI's default walk length for the returns suite

    def generate(self, seed, index, sizes, workdir):
        (gseed,) = _derived(seed, index, "verify")
        path = _write_cfg(self.D, sizes["n"], gseed, workdir / f"verify{index}.sgf")
        argv = ["bounds", "verify", "--in", str(path), "--suite", "main,returns", "--k", "1..3"]
        return Inputs("cli", argv, [path], {"graph": gseed})

    def oracle(self, inputs, sizes):
        g = oracles.read_sgf(inputs.files[0])
        d, nv = self.D, g.nv
        rho_t = 2.0 * math.sqrt(d - 1) / d
        totals = oracles.nontrivial_closed_totals(g)
        diag = oracles.even_diag_counts(g, {self.N_RETURNS * k // 2 for k in self.KS})
        rho = oracles.rho_lanczos(g)
        lg = math.log(nv) / math.log(d)
        expect = {}
        for k in self.KS:
            nu = 2 * 10 ** 11 * 2 ** (4 * k) * (d - 1) ** (3 * k) * k
            gamma = Fraction(totals[k], nv)
            rhs = 1.0 + float(gamma) / nu - (1.5 * (math.log(lg) / math.log(d)) + 6.0) / lg
            lhs = rho / rho_t
            expect[("main", k)] = (lhs, rhs, 1e-12, nv >= 8 * d)
            nk = self.N_RETURNS * k
            logs = sum(math.log(int(c)) for c in diag[nk // 2])
            lhs_r = logs / nv - nk * math.log(d)
            rhs_r = nk * math.log(rho_t) - 1.5 * math.log(nk) - 4.0 + nk * float(gamma) / nu
            expect[("returns", k)] = (lhs_r, rhs_r, 1e-9, nv >= nk * nk and self.N_RETURNS >= 4)
        return {"rows": expect}

    def check(self, oracle, stdout):
        problems = []
        rows = _rows(stdout)
        seen = set()
        for row in rows:
            key = (row["suite"], int(row["k"]))
            seen.add(key)
            want = oracle["rows"].get(key)
            if want is None:
                problems.append(f"unexpected row {key}")
                continue
            lhs, rhs, tol, applicable = want
            if not _close(float(row["lhs"]), lhs, 1e-9):
                problems.append(f"{key} lhs {row['lhs']} != reference {lhs!r}")
            if not _close(float(row["rhs"]), rhs, 1e-9):
                problems.append(f"{key} rhs {row['rhs']} != reference {rhs!r}")
            verdict = _verdict(lhs - rhs, tol, applicable)
            if row["verdict"] != verdict:
                problems.append(f"{key} verdict {row['verdict']!r} != reference {verdict!r}")
        missing = set(oracle["rows"]) - seen
        if missing:
            problems.append(f"missing rows {sorted(missing)}")
        return problems


class Percolation(Workload):
    name = "percolation"
    why = "percolation growth p=0.9 on a 300x300 window: Python graph construction and the uint64 kernel"
    sizes = {"size": 300, "nmax": 40, "pool": 24}
    tiny = {"size": 40, "nmax": 10, "pool": 2}
    P = 0.9
    TAIL = 0.25  # the CLI's default tail fraction

    def generate(self, seed, index, sizes, workdir):
        # the first derived window seed whose origin is open
        size = sizes["size"]
        for wseed in _derived(seed, index, "percolation", 64):
            if oracles.percolation_mask(size, self.P, wseed)[size // 2, size // 2]:
                break
        else:
            raise RuntimeError(f"no open origin among 64 window seeds for seed {seed}")
        argv = ["percolation", "growth", "--p", str(self.P), "--size", str(size),
                "--nmax", str(sizes["nmax"]), "--seed", str(wseed)]
        return Inputs("cli", argv, [], {"window": wseed})

    def oracle(self, inputs, sizes):
        wseed = inputs.seeds["window"]
        cluster, border = oracles.origin_cluster(sizes["size"], self.P, wseed)
        nmax = sizes["nmax"]
        spheres = oracles.cover_sphere_sizes(sizes["size"], self.P, wseed, nmax)
        tail = nmax - math.ceil(self.TAIL * nmax) + 1
        rates = [math.exp(math.log(s) / n) if s else 0.0 for n, s in enumerate(spheres) if n]
        return {
            "p": self.P,
            "size": sizes["size"],
            "seed": wseed,
            "cluster_size": cluster,
            "border_distance": border,
            "boundary_clean": border is None or nmax < border,
            "tail_start": tail,
            "growth": min(rates[tail - 1:]),
        }

    def check(self, oracle, stdout):
        try:
            out = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return [f"summary is not JSON: {exc}"]
        problems = [
            f"{key} {out.get(key)!r} != reference {want!r}"
            for key, want in oracle.items()
            if key != "growth" and out.get(key) != want
        ]
        if not _close(out.get("growth"), oracle["growth"], 1e-12):
            problems.append(f"growth {out.get('growth')!r} != reference {oracle['growth']!r}")
        return problems


class Walks(Workload):
    name = "walks"
    why = "bounds verify chi,visits k=2,3 n=200, 250 draws per check, cfg(3,256): nullcycle draws and chi; tree tables written cold, read warm"
    sizes = {"n": 256, "walk": 200, "samples": 250, "pool": 32}
    tiny = {"n": 64, "walk": 20, "samples": 50, "pool": 2}
    D = 3
    KS = (2, 3)
    ROOT = 0  # the CLI samples at vertex 0

    def generate(self, seed, index, sizes, workdir):
        gseed, sseed = _derived(seed, index, "walks", 2)
        path = _write_cfg(self.D, sizes["n"], gseed, workdir / f"walks{index}.sgf")
        argv = ["bounds", "verify", "--in", str(path), "--suite", "chi,visits", "--k", "2,3",
                "--n", str(sizes["walk"]), "--samples", str(sizes["samples"]),
                "--seed", str(sseed)]
        return Inputs("cli", argv, [path], {"graph": gseed, "sampler": sseed})

    def oracle(self, inputs, sizes):
        g = oracles.read_sgf(inputs.files[0])
        n = sizes["walk"]
        closed = oracles.closed_walk_counts(g, self.ROOT, [n * k for k in self.KS])
        rows = {}
        for k in self.KS:
            rows[("chi", k)] = {"lhs": float(closed[n * k])}
            gam = oracles.nontrivial_closed_at(g, self.ROOT, k)
            rows[("visits", k)] = {
                "rhs": gam / (30.0 * (4 * self.D - 4) ** k),
                "n_ok": 2 * k + 2 <= n <= math.isqrt(g.nv),
            }
        return {"rows": rows}

    def check(self, oracle, stdout):
        problems = []
        seen = set()
        for row in _rows(stdout):
            key = (row["suite"], int(row["k"]))
            seen.add(key)
            want = oracle["rows"].get(key)
            if want is None:
                problems.append(f"unexpected row {key}")
                continue
            if row["verdict"] == "fail":
                problems.append(f"{key} verdict fail")
            if "lhs" in want and float(row["lhs"]) != want["lhs"]:
                problems.append(f"{key} closed-walk count {row['lhs']} != exact {want['lhs']!r}")
            if "rhs" in want and not _close(float(row["rhs"]), want["rhs"], 1e-12):
                problems.append(f"{key} rhs {row['rhs']} != reference {want['rhs']!r}")
            if not want.get("n_ok", True) and row["verdict"] != "not applicable":
                problems.append(f"{key} verdict {row['verdict']!r} with n outside [2k+2, sqrt|G|]")
        missing = set(oracle["rows"]) - seen
        if missing:
            problems.append(f"missing rows {sorted(missing)}")
        return problems


class Fleet(Workload):
    name = "fleet"
    why = "ekvivalens_diagnostic r=2 kmax=2 on one cfg(4,64) and one cfg(4,128) graph: pattern canonical forms"
    sizes = {"ns": (64, 128), "per_size": 1, "pool": 32}
    tiny = {"ns": (16,), "per_size": 2, "pool": 2}
    D = 4
    R = 2
    KMAX = 2

    def generate(self, seed, index, sizes, workdir):
        gseeds = _derived(seed, index, "fleet", len(sizes["ns"]) * sizes["per_size"])
        files = []
        for i, gseed in enumerate(gseeds):
            n = sizes["ns"][i // sizes["per_size"]]
            path = workdir / f"cfg{self.D}-{n}-{index}-{i}.sgf"
            files.append(_write_cfg(self.D, n, gseed, path))
        argv = ["--r", str(self.R), "--kmax", str(self.KMAX), *map(str, files)]
        return Inputs("fleet", argv, files, {"graphs": gseeds})

    def oracle(self, inputs, sizes):
        rows = []
        for path in inputs.files:
            g = oracles.read_sgf(path)
            totals = oracles.nontrivial_closed_totals(g)
            tree = oracles.tree_ball_vertices(g, self.R)
            w1, tol = oracles.km_w1(oracles.eigvalsh_markov(g), self.D)
            rows.append({
                "label": path.stem,
                "nv": g.nv,
                "tv_tree": float(Fraction(g.nv - tree, g.nv)),
                "w1_km": (w1, tol),
                "densities": [float(Fraction(totals[k], g.nv)) for k in range(1, self.KMAX + 1)],
            })
        return {"rows": rows}

    def check(self, oracle, stdout):
        got = _rows(stdout)
        want_rows = oracle["rows"]
        if len(got) != len(want_rows):
            return [f"{len(got)} rows, expected {len(want_rows)}"]
        problems = []
        for row, want in zip(got, want_rows):
            label = want["label"]
            if row["label"] != label or int(row["nv"]) != want["nv"]:
                problems.append(f"row {row['label']}/{row['nv']} != {label}/{want['nv']}")
            if float(row["tv_tree"]) != want["tv_tree"]:
                problems.append(f"{label} tv_tree {row['tv_tree']} != exact {want['tv_tree']!r}")
            w1, tol = want["w1_km"]
            if abs(float(row["w1_km"]) - w1) > tol:
                problems.append(f"{label} w1_km {row['w1_km']} != reference {w1!r} (tol {tol:.1e})")
            for k, dens in enumerate(want["densities"], start=1):
                if float(row[f"density_{k}"]) != dens:
                    problems.append(f"{label} density_{k} {row[f'density_{k}']} != exact {dens!r}")
        return problems


WORKLOADS = {w.name: w for w in (Verify(), Percolation(), Walks(), Fleet())}
