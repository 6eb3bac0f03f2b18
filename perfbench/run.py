"""serregraph CLI benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each job is one fresh `python -m serregraph ...` process (for fleet, one
fleet_job.py process), run one at a time on the next of the workload's
`pool` input sets generated from --seed, and checked against an oracle
computed by oracles.py from the same input. The pool is large enough that
each measured job gets an input set of its own, so a run's statistics are
taken over many random inputs, not over a few.

--trace 0 reports the end-to-end metrics: setup_s (median over SETUPS
set-ups, each generating the input sets and running one warm-up job against
an empty tree-table cache), the trimmed means of job_s (spawn to exit,
output read) and cpu_s (child user+sys), and the median of peak_rss_mb
(child maximum RSS), over the jobs measured in --seconds. The trimmed mean
drops the slowest and the fastest TRIM share of a run's jobs (at least one
each) and averages the rest: it uses every ordinary job, so it follows the
machine's slow stretches less than a median of a dozen jobs does, and one
stalled job cannot move it. --trace 1 reports the per-layer metrics of
tracer.py, from traced jobs run alternately with untraced ones.

The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the lines before it give the environment and each metric with
its sample count. All files go to a fresh directory under .perfbench_out/
in the checkout (SERREGRAPH_CACHE points inside it), removed at the end.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # no __pycache__ for the benchmark's own modules

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

SETUPS = 3
MIN_JOBS = 2
TRIM = 0.1  # share of a run's jobs dropped at each end before averaging
IMPORT_PROBES = 3

# metric -> (unit, statistic over the run's samples)
END_TO_END = {"setup_s": ("s", "median"), "job_s": ("s", "trimmed_mean"),
              "cpu_s": ("s", "trimmed_mean"), "peak_rss_mb": ("MB", "median")}


@dataclass
class JobResult:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    log: Path
    input_set: int = 0
    problems: list | None = None  # None until judged against the oracle


class Spawner:
    """Runs jobs through spawner.py, so that each job's maximum RSS is its own
    and not this process's (see spawner.py)."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        return self

    def __exit__(self, exc_type, *_):
        self.proc.stdin.close()
        if exc_type is not None:
            # a job may still run: stop the spawner's whole process group
            with contextlib.suppress(ProcessLookupError):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()

    def execute(self, cmd, env, log: Path) -> JobResult:
        """Run one job to completion; time spawn to exit with stdout fully read."""
        req = {"cmd": [str(c) for c in cmd], "env": env, "cwd": str(ROOT), "log": str(log)}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the job spawner exited")
        reply = json.loads(line)
        return JobResult(wall=reply["wall"], cpu=reply["cpu"], rss_mb=reply["rss_kb"] / 1024.0,
                         code=reply["code"], stdout=reply["stdout"], log=log)


def judge(res: JobResult, check) -> None:
    """Set res.problems: a non-zero exit or any disagreement with the oracle."""
    res.problems = []
    if res.code != 0:
        tail = res.log.read_text(errors="replace").strip().splitlines()[-1:]
        res.problems.append(f"exit code {res.code}: {' '.join(tail)}")
        return
    try:
        res.problems.extend(check(res.stdout))
    except (ValueError, KeyError, TypeError, AttributeError, IndexError) as exc:
        res.problems.append(f"unreadable output: {exc!r}")


def closed_loop(run_one, seconds: float, min_jobs: int) -> list[JobResult]:
    """One client: start the next job when the previous one has finished."""
    results = []
    end = time.perf_counter() + seconds
    while len(results) < min_jobs or time.perf_counter() < end:
        results.append(run_one())
    return results


def median(values) -> float:
    return float(statistics.median(values))


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = max(1, int(TRIM * len(values))) if len(values) > 2 else 0
    return float(statistics.fmean(values[cut:len(values) - cut]))


STATISTICS = {"median": median, "trimmed_mean": trimmed_mean}


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def job_env(cache: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["SERREGRAPH_CACHE"] = str(cache)
    return env


# -- environment record ----------------------------------------------------------


def _git_sha():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    res = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() or None


def _blas_threads():
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))
    for lib in libs:
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")


def environment(workload: str, seed: int, inputs) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "workload": workload,
        "seed": seed,
        "derived_seeds": [i.seeds for i in inputs],
    }


# -- one run ------------------------------------------------------------------------


class Run:
    """A run's scratch directory, its input sets, its jobs and their oracles."""

    def __init__(self, workload, seed: int, sizes: dict, workdir: Path, spawner: Spawner):
        self.workload = workload
        self.spawner = spawner
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.jobs: list[JobResult] = []
        self.inputs = []
        self.inputs_dir = workdir
        self.oracles = None

    @property
    def cache(self) -> Path:
        return self.inputs_dir / "cache"

    def _log(self) -> Path:
        return self.workdir / f"job{len(self.jobs)}.err"

    @property
    def pool(self) -> int:
        return self.sizes["pool"]

    def setup(self) -> float:
        """Generate the input sets into a fresh directory and run one warm-up
        job against its empty cache; returns the time both took."""
        if self.inputs_dir != self.workdir:
            shutil.rmtree(self.inputs_dir)
        self.inputs_dir = Path(tempfile.mkdtemp(prefix="setup-", dir=self.workdir))
        self.cache.mkdir()
        t0 = time.perf_counter()
        self.inputs = [self.workload.generate(self.seed, i, self.sizes, self.inputs_dir)
                       for i in range(self.pool)]
        self.job()
        return time.perf_counter() - t0

    def job(self, traced_to: Path | None = None, input_set: int | None = None) -> JobResult:
        """Run one job, by default on the next input set in turn."""
        k = len(self.jobs) % self.pool if input_set is None else input_set
        inputs = self.inputs[k]
        if traced_to is None:
            cmd = inputs.command(sys.executable)
        else:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(traced_to),
                   inputs.entry, *inputs.argv]
        res = self.spawner.execute(cmd, job_env(self.cache), self._log())
        res.input_set = k
        self.jobs.append(res)
        if self.oracles is not None:
            self._judge(res)
        return res

    def _judge(self, res: JobResult) -> None:
        oracle = self.oracles[res.input_set]
        judge(res, lambda stdout: self.workload.check(oracle, stdout))

    def compute_oracles(self) -> None:
        """Untimed; judges the set-up jobs that ran before they existed."""
        self.oracles = [self.workload.oracle(i, self.sizes) for i in self.inputs]
        for res in self.jobs:
            if res.problems is None:
                self._judge(res)

    def traced_job(self, input_set: int) -> tuple[JobResult, list | None]:
        spans_path = self.workdir / f"spans{len(self.jobs)}.json"
        res = self.job(spans_path, input_set)
        if not spans_path.exists():
            res.problems.append("traced job wrote no spans")
            return res, None
        spans = json.loads(spans_path.read_text())["spans"]
        spans_path.unlink()
        return res, spans

    def import_time(self) -> float:
        """Cold `import serregraph.cli` in a fresh interpreter."""
        code = ("import time; t = time.perf_counter(); import serregraph.cli; "
                "print(time.perf_counter() - t)")
        res = self.spawner.execute([sys.executable, "-c", code], job_env(self.cache), self._log())
        if res.code != 0:
            raise RuntimeError(f"import serregraph.cli failed, see {res.log}")
        return float(res.stdout)


@contextlib.contextmanager
def scratch(prefix: str):
    """A fresh directory under OUT, removed (with OUT, once empty) on exit."""
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()


def measure(workload, seed: int, seconds: float, trace: bool, sizes=None,
            setups: int = SETUPS, min_jobs: int = MIN_JOBS):
    """One benchmark run; returns the result object and the report lines."""
    sizes = sizes or workload.sizes
    from tracer import UNITS, layer_metrics

    with scratch(f"{workload.name}-") as workdir, Spawner() as spawner:
        # input generation never touches tree tables; should it ever, they
        # land in the run directory, not in ~/.cache
        os.environ["SERREGRAPH_CACHE"] = str(workdir / "unused-cache")
        run = Run(workload, seed, sizes, workdir, spawner)
        setup_times = [run.setup() for _ in range(setups if not trace else 1)]
        run.compute_oracles()
        metrics, counts = {}, {}
        if not trace:
            measured = closed_loop(run.job, seconds, min_jobs)
            values = {
                "setup_s": setup_times,
                "job_s": [r.wall for r in measured],
                "cpu_s": [r.cpu for r in measured],
                "peak_rss_mb": [r.rss_mb for r in measured],
            }
            for name, (unit, stat) in END_TO_END.items():
                metrics[name] = {"value": STATISTICS[stat](values[name]), "unit": unit}
                counts[name] = len(values[name])
        else:
            imports = [run.import_time() for _ in range(IMPORT_PROBES)]
            traced, plain, per_job = [], [], []

            def pair():
                # traced and untraced on the same input set, so that their
                # difference is the tracing overhead alone
                k = len(traced) % run.pool
                res, spans = run.traced_job(k)
                traced.append(res.wall)
                if spans:
                    per_job.append(layer_metrics(spans))
                plain.append(run.job(input_set=k).wall)

            closed_loop(pair, seconds, 1)
            for name in per_job[0] if per_job else []:
                metrics[name] = {"value": median(m[name] for m in per_job),
                                 "unit": UNITS[name]}
                counts[name] = len(per_job)
            metrics["cli.import_s"] = {"value": median(imports), "unit": "s"}
            counts["cli.import_s"] = len(imports)
            metrics["treewalk.disk_bytes"] = {"value": dir_bytes(run.cache), "unit": "B"}
            counts["treewalk.disk_bytes"] = 1
            metrics["trace.overhead_s"] = {"value": median(traced) - median(plain), "unit": "s"}
            counts["trace.overhead_s"] = len(traced)
        failed = sum(1 for r in run.jobs if r.problems)
        attempted = len(run.jobs)
        lines = [f"env {json.dumps(environment(workload.name, seed, run.inputs), sort_keys=True)}"]
        for r in run.jobs:
            for p in r.problems:
                lines.append(f"problem {workload.name}: {p}")
        lines.append(f"metric {workload.name} fail_ratio {failed / attempted:.6g} count/count "
                     f"n={attempted}")
        for name, m in metrics.items():
            lines.append(f"metric {workload.name} {name} {m['value']!r} {m['unit']} "
                         f"n={counts[name]}")
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return result, lines


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "serregraph" / "cli.py").is_file():
        print(f"error: no serregraph sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines), flush=True)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
