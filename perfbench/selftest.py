"""Fast self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that
  1. every workload reports every metric named in BENCHMARK.json, with its
     unit, in both modes, and that its jobs agree with their oracles;
  2. a corrupted job output is counted as failed;
  3. the tracer's self times add up to the traced root span, which fits
     inside the traced job's wall time;
  4. nothing outside the run's own directory under .perfbench_out/ is
     written (bytecode caches aside), in the checkout or in
     ~/.cache/serregraph;
  5. without the serregraph sources the benchmark exits non-zero and prints
     no result.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


def snapshot(root: Path) -> dict:
    """(size, mtime) of every file, skipping the run output and bytecode."""
    if not root.exists():
        return {}
    out = {}
    for p in root.rglob("*"):
        rel = p.relative_to(root)
        if rel.parts[0] in (".perfbench_out", ".git") or "__pycache__" in rel.parts:
            continue
        if p.is_file():
            st = p.stat()
            out[str(rel)] = (st.st_size, st.st_mtime_ns)
    return out


def _bump_first(stdout: str, column: str) -> str:
    lines = stdout.splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) * (1 + 1e-6) + 1e-9)
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _bump_cluster(stdout: str) -> str:
    out = json.loads(stdout)
    out["cluster_size"] += 1
    return json.dumps(out)


CORRUPT = {
    "verify": lambda s: _bump_first(s, "lhs"),
    "percolation": _bump_cluster,
    "walks": lambda s: _bump_first(s, "lhs"),
    "fleet": lambda s: _bump_first(s, "tv_tree"),
}


def check_metrics(spec) -> None:
    for name, wl in WORKLOADS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, lines = run.measure(wl, SEED, 0, trace, sizes=wl.tiny, setups=1, min_jobs=1)
            assert result["correct"] and result["failed"] == 0, "\n".join(lines)
            got = result["metrics"]
            for m in spec[section]:
                assert m["name"] in got, f"{name}: no {m['name']}"
                assert got[m["name"]]["unit"] == m["unit"], f"{name}: unit of {m['name']}"
            print(f"ok   {name} trace={int(trace)}: {len(got)} metrics, "
                  f"{result['attempted']} jobs agree with the oracle")


def check_corruption() -> None:
    execute = run.Spawner.execute
    for name, wl in WORKLOADS.items():
        def corrupted(self, cmd, env, log, _bump=CORRUPT[name]):
            res = execute(self, cmd, env, log)
            res.stdout = _bump(res.stdout)
            return res

        run.Spawner.execute = corrupted
        try:
            result, _ = run.measure(wl, SEED, 0, False, sizes=wl.tiny, setups=1, min_jobs=1)
        finally:
            run.Spawner.execute = execute
        assert not result["correct"] and result["failed"] == result["attempted"], result
        print(f"ok   {name}: {result['failed']}/{result['attempted']} corrupted outputs counted")


def check_tracer() -> None:
    for name in ("verify", "fleet"):
        wl = WORKLOADS[name]
        with run.scratch("tracer-") as workdir, run.Spawner() as spawner:
            r = run.Run(wl, SEED, wl.tiny, workdir, spawner)
            r.setup()
            r.compute_oracles()
            res, spans = r.traced_job(0)
        assert spans and not res.problems, res.problems
        m = tracer.layer_metrics(spans)
        layer_sum = sum(m[metric] for metric in tracer.SELF_METRIC.values())
        wall = m["trace.wall_s"]
        assert abs(sum(tracer.self_times(spans)) - wall) < 1e-6 * max(1.0, wall)
        assert abs(layer_sum - wall) < 1e-6 * max(1.0, wall), (layer_sum, wall)
        assert wall <= res.wall, (wall, res.wall)
        print(f"ok   {name}: {len(spans)} spans, layer self times sum to {layer_sum:.6f} s "
              f"= root span {wall:.6f} s <= job wall {res.wall:.3f} s")


def check_bare_checkout() -> None:
    with run.scratch("bare-") as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = subprocess.run([sys.executable, f"{run.BENCH_DIR.name}/run.py", "--workload",
                              "verify", "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
    assert res.returncode != 0 and not res.stdout.strip(), (res.returncode, res.stdout)
    print(f"ok   bare checkout: exit {res.returncode}, nothing on stdout")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    home_cache = Path.home() / ".cache" / "serregraph"
    before = snapshot(run.ROOT), snapshot(home_cache)
    check_metrics(spec)
    check_corruption()
    check_tracer()
    check_bare_checkout()
    after = snapshot(run.ROOT), snapshot(home_cache)
    changed = [k for a, b in zip(before, after) for k in a.keys() | b.keys() if a.get(k) != b.get(k)]
    assert not changed, f"files written outside the run directory: {sorted(changed)}"
    assert not run.OUT.exists(), f"{run.OUT} left behind"
    print("ok   no file written outside the run directory; run directory removed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
